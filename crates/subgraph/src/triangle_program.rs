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
//! matrix contents), and so is the relay each word takes under the
//! router's [`cc_clique::RelayPolicy::SingleHash`] arm
//! ([`cc_clique::single_hash_relay`] draws it from `(seed, src, dst, j)`).
//! The whole relay schedule is therefore common knowledge, fixed by
//! `(n, seed)`, and the state machine reproduces the router's relaying
//! without headers and without a coordinator. It draws the schedule **once
//! per process** ([`RelaySchedule`]) and shares it with every node program of
//! the in-process engine or of a worker process. One [`StepTable`] per
//! route step carries all three hops, each laid out flat behind an offset
//! table:
//!
//! * **send**: every word's relay, in each source's emission order — a
//!   source deals its stream onto the relays by a counting sort;
//! * **forward**: for relay `r` and source `s`, the destinations of the
//!   words `r` receives from `s`, in stream order — a relay zips each
//!   received stream with its row and counting-sorts the words by
//!   destination;
//! * **reassembly**: per destination, the messages addressed to it as
//!   `(source, start, len)`, by source and then emission order — the
//!   destination reads each message's words off its relays' streams, in
//!   the order the send table names the relays.
//!
//! No word is hashed inside a round. Per-round link loads — and therefore
//! executed rounds, total words, and the final count — are **identical** to
//! [`crate::count_triangles_3d`] on a `SingleHash` clique, which the tests
//! pin exactly.
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

/// One message of a route step as its destination reassembles it: the
/// source, where the message starts in the source's stream, and its length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Message {
    src: u32,
    start: u32,
    len: u32,
}

/// The three hops of one oblivious route step, as tables. Each is laid out
/// flat behind an offset table, like the transport's link slabs, and built
/// by counting passes; node ids are `u16`, so the per-word tables cost four
/// bytes per routed word in all.
#[derive(Debug)]
struct StepTable {
    n: usize,
    /// Send side: source `s`'s words go to the relays
    /// `relays[streams[s]..streams[s + 1]]`, in emission order.
    streams: Vec<u32>,
    relays: Vec<u16>,
    /// Forward side: row `r * n + s`, `dsts[offsets[r * n + s]..offsets[r
    /// * n + s + 1]]`, is where relay `r` forwards the words it receives
    /// from `s`, in stream order.
    offsets: Vec<u32>,
    dsts: Vec<u16>,
    /// Reassembly side: the messages addressed to `d` are
    /// `messages[inbound[d]..inbound[d + 1]]`, by source and then emission
    /// order.
    inbound: Vec<u32>,
    messages: Vec<Message>,
}

/// Turns per-bucket counts into each bucket's first slot (the scatter
/// cursors) and returns the `counts.len() + 1` offset table.
fn prefix_offsets(counts: &mut [u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut at = 0u32;
    for c in counts {
        offsets.push(at);
        let start = at;
        at = at
            .checked_add(*c)
            .expect("a route step exceeds u32::MAX words");
        *c = start;
    }
    offsets.push(at);
    offsets
}

/// A table position or length as the tables store it.
fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("a route step exceeds u32::MAX words")
}

impl StepTable {
    /// # Panics
    ///
    /// Panics if `n > 65 536` (the router's bound too), or if the step
    /// routes more than `u32::MAX` words.
    fn build(n: usize, seed: u64, pattern: impl Fn(usize) -> Vec<(usize, usize)>) -> Self {
        assert!(n <= 1 << 16, "relay tables hold node ids as u16: n={n}");
        let patterns: Vec<Vec<(usize, usize)>> = (0..n).map(pattern).collect();
        let total = patterns.iter().flatten().map(|&(_, len)| len).sum();
        // Pass one: draw every word's relay, in stream order, and size every
        // forwarding row and every destination's message list.
        let mut streams = Vec::with_capacity(n + 1);
        let mut relays = Vec::with_capacity(total);
        let mut rows = vec![0u32; n * n];
        let mut inbound = vec![0u32; n];
        streams.push(0);
        for (src, list) in patterns.iter().enumerate() {
            for &(dst, len) in list {
                inbound[dst] += 1;
                for j in 0..len {
                    let relay = single_hash_relay(seed, n, src, dst, j);
                    rows[relay * n + src] += 1;
                    relays.push(relay as u16);
                }
            }
            streams.push(narrow(relays.len()));
        }
        let offsets = prefix_offsets(&mut rows);
        let inbound_offsets = prefix_offsets(&mut inbound);
        // Pass two: scatter the destinations into the forwarding rows and
        // the messages into their destinations' lists.
        let mut dsts = vec![0u16; total];
        let mut messages = vec![Message::default(); patterns.iter().map(Vec::len).sum()];
        for (src, list) in patterns.iter().enumerate() {
            let stream = &relays[streams[src] as usize..streams[src + 1] as usize];
            let mut start = 0;
            for &(dst, len) in list {
                for &relay in &stream[start..][..len] {
                    let c = &mut rows[relay as usize * n + src];
                    dsts[*c as usize] = dst as u16;
                    *c += 1;
                }
                let c = &mut inbound[dst];
                messages[*c as usize] = Message {
                    src: src as u32,
                    start: narrow(start),
                    len: narrow(len),
                };
                *c += 1;
                start += len;
            }
        }
        Self {
            n,
            streams,
            relays,
            offsets,
            dsts,
            inbound: inbound_offsets,
            messages,
        }
    }

    /// The relay of each word `src` emits, in emission order.
    fn stream(&self, src: usize) -> &[u16] {
        &self.relays[self.streams[src] as usize..self.streams[src + 1] as usize]
    }

    /// Where `relay` forwards the words it received from `src`, in order.
    fn row(&self, relay: usize, src: usize) -> &[u16] {
        let at = relay * self.n + src;
        &self.dsts[self.offsets[at] as usize..self.offsets[at + 1] as usize]
    }

    /// The messages addressed to `dst`, in reassembly order.
    fn inbound(&self, dst: usize) -> &[Message] {
        &self.messages[self.inbound[dst] as usize..self.inbound[dst + 1] as usize]
    }
}

/// Both route steps' schedules for one `(n, seed)`.
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

/// Words counting-sorted by the link they leave on: link `k` carries
/// `words[ends[k - 1]..ends[k]]` (from 0 for `k = 0`).
struct ByLink {
    words: Vec<u64>,
    ends: Vec<usize>,
}

impl ByLink {
    /// Sorts words by link, stably, into one buffer: each run pairs a slice
    /// of words with the link each of them leaves on.
    fn sort<'a>(n: usize, runs: impl Iterator<Item = (&'a [u64], &'a [u16])> + Clone) -> Self {
        let mut ends = vec![0usize; n + 1];
        for (_, links) in runs.clone() {
            for &link in links {
                ends[link as usize + 1] += 1;
            }
        }
        for k in 0..n {
            ends[k + 1] += ends[k];
        }
        // `ends[k]` is link k's first slot; scattering advances it to the
        // slot after link k's last word, where link k + 1 starts.
        let mut sorted = vec![0; ends[n]];
        for (words, links) in runs {
            for (&word, &link) in words.iter().zip(links) {
                let c = &mut ends[link as usize];
                sorted[*c] = word;
                *c += 1;
            }
        }
        ends.pop();
        Self {
            words: sorted,
            ends,
        }
    }

    /// One send per non-empty link.
    fn send(&self, ctx: &mut RoundCtx<'_>) {
        let mut start = 0;
        for (link, &end) in self.ends.iter().enumerate() {
            if end > start {
                ctx.send(link, &self.words[start..end]);
            }
            start = end;
        }
    }
}

/// Phase A of a route step: deal this node's stream — its messages end to
/// end, in emission order — onto the relays the table drew for its words.
///
/// # Panics
///
/// Panics if the stream is not as long as the step's pattern says.
fn send_via_relays(ctx: &mut RoundCtx<'_>, table: &StepTable, stream: &[u64]) {
    let me = ctx.node();
    let relays = table.stream(me);
    assert_eq!(
        stream.len(),
        relays.len(),
        "node {me} emitted a stream the route pattern does not have"
    );
    ByLink::sort(ctx.n(), std::iter::once((stream, relays))).send(ctx);
}

/// Phase B of a route step: forward every word this node relayed to its
/// final destination, read off the step's forwarding rows (no headers on
/// the wire — the pattern is common knowledge).
///
/// # Panics
///
/// Panics if a source's stream is not exactly as long as the schedule says:
/// the sender ran a different pattern, and forwarding would misdeliver.
fn forward_as_relay(ctx: &mut RoundCtx<'_>, table: &StepTable) {
    let n = ctx.n();
    let me = ctx.node();
    for src in 0..n {
        assert_eq!(
            ctx.received(src).len(),
            table.row(me, src).len(),
            "relay stream does not match the forwarding schedule \
             (relay {me}, source {src})"
        );
    }
    let received = (0..n).map(|src| (ctx.received(src), table.row(me, src)));
    ByLink::sort(n, received).send(ctx);
}

/// What one destination received in a route step: per source, the
/// concatenated payloads of the messages it addressed here, in emission
/// order — the exact view `Clique::route` would have delivered — in one
/// buffer.
struct Reassembled {
    words: Vec<u64>,
    /// Source `s`'s payload is `words[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
}

impl Reassembled {
    fn from(&self, src: usize) -> &[u64] {
        &self.words[self.offsets[src]..self.offsets[src + 1]]
    }
}

/// After phase B: reassemble the messages addressed to this node by reading
/// each one's words off the relays' streams, in the order the send table
/// names the relays.
///
/// # Panics
///
/// Panics if a relay's stream is shorter or longer than the schedule says.
fn reassemble(ctx: &RoundCtx<'_>, table: &StepTable) -> Reassembled {
    let n = ctx.n();
    let me = ctx.node();
    let refuse = |relay: usize| -> ! {
        panic!(
            "relay stream does not match the reassembly schedule \
             (relay {relay}, destination {me})"
        )
    };
    let inbound = table.inbound(me);
    let mut streams: Vec<_> = (0..n).map(|relay| ctx.received(relay).iter()).collect();
    let mut words = Vec::with_capacity(inbound.iter().map(|m| m.len as usize).sum());
    let mut offsets = vec![0; n + 1];
    for m in inbound {
        let src = m.src as usize;
        for &relay in &table.stream(src)[m.start as usize..][..m.len as usize] {
            let relay = relay as usize;
            words.push(*streams[relay].next().unwrap_or_else(|| refuse(relay)));
        }
        offsets[src + 1] = words.len();
    }
    if let Some(relay) = streams.iter().position(|rest| !rest.as_slice().is_empty()) {
        refuse(relay);
    }
    // Sources that addressed nothing here end where their predecessor does.
    for src in 0..n {
        offsets[src + 1] = offsets[src + 1].max(offsets[src]);
    }
    Reassembled { words, offsets }
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
            row: g.out_row(v, 0, |_, _| 1),
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

    /// This node's scatter stream, in the order [`scatter_pattern`] lists
    /// the messages: every block of the row `p` times over for the `S`
    /// slices, then the same again for the `T` slices.
    fn scatter_stream(&self) -> Vec<u64> {
        let p = self.plan.p();
        let mut out = Vec::with_capacity(2 * p * self.row.len());
        for _half in 0..2 {
            for b in 0..p {
                let slice = &self.row[self.plan.block_range(b)];
                for _ in 0..p {
                    out.extend(slice.iter().map(|&x| x as u64));
                }
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

    /// Refuses a `state` that is not an encoding for a clique of `n` nodes:
    /// no header, an `A²` row that is neither absent nor `n` long, or a
    /// total length other than header + `A²` row + adjacency row.
    fn decode_state(node: usize, n: usize, state: &[u64]) -> Result<Self, String> {
        let sq_len = state.get(4).map_or(usize::MAX, |&len| len as usize);
        if !((sq_len == 0 || sq_len == n) && state.len() == 5 + sq_len + n) {
            return Err(format!(
                "malformed cc.triangle state for node {node}: {} words for n={n}",
                state.len()
            ));
        }
        let (sq_row, row) = state[5..].split_at(sq_len);
        Ok(Self {
            row: row.iter().map(|&x| x as i64).collect(),
            directed: state[0] != 0,
            seed: state[1],
            plan: Plan3d::new(n),
            sq_row: sq_row.iter().map(|&x| x as i64).collect(),
            count: (state[2] != 0).then_some(state[3]),
        })
    }
}

impl NodeProgram for TriangleProgram {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
        let n = ctx.n();
        let seed = self.seed;
        let plan = self.plan;
        match ctx.round() {
            // Scatter phase A: row slices dealt to their relays.
            0 => {
                let stream = self.scatter_stream();
                let schedule = RelaySchedule::shared(n, seed);
                send_via_relays(ctx, &schedule.scatter, &stream);
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
                let schedule = RelaySchedule::shared(n, seed);
                let mut prod = Vec::new();
                if me < plan.active() {
                    let from = reassemble(ctx, &schedule.scatter);
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
                        let vals = from.from(r);
                        for j in 0..h2 {
                            s_blk[idx * h2 + j] = vals[j] as i64;
                        }
                    }
                    for (idx, r) in r2.clone().enumerate() {
                        let vals = from.from(r);
                        let off = if plan.block_of_row(r) == u1 { h2 } else { 0 };
                        for j in 0..h3 {
                            t_blk[idx * h3 + j] = vals[off + j] as i64;
                        }
                    }
                    // Schoolbook block product (ℤ, like IntRing). Its rows,
                    // in block(u₁) order, are this node's gather stream.
                    prod = vec![0i64; h1 * h3];
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
                }
                let stream: Vec<u64> = prod.iter().map(|&x| x as u64).collect();
                send_via_relays(ctx, &schedule.gather, &stream);
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
                let from = reassemble(ctx, &RelaySchedule::shared(n, seed).gather);
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
                        let vals = from.from(plan.node_of(rb, u2, u3));
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
                        ctx.send(u, [self.row[u] as u64]);
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
        for (n, p, seed) in [
            (16usize, 0.4, 1u64),
            (27, 0.3, 2),
            (30, 0.25, 5),
            (64, 0.3, 7),
        ] {
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
            let back = TriangleProgram::decode_state(node, 12, &WireProgram::encode_state(p))
                .expect("a program's own state decodes");
            assert_eq!(back.row, p.row, "node {node}");
            assert_eq!(back.sq_row, p.sq_row, "node {node}");
            assert_eq!(back.count, p.count, "node {node}");
            assert_eq!(back.seed, p.seed);
            assert_eq!(back.directed, p.directed);
        }
        // Pre-run state (empty sq_row, no count) survives the trip too.
        let fresh = TriangleProgram::new(&g, 3, 7);
        let back = TriangleProgram::decode_state(3, 12, &WireProgram::encode_state(&fresh))
            .expect("a fresh program's state decodes");
        assert_eq!(back.sq_row, fresh.sq_row);
        assert_eq!(back.count, None);
    }

    /// Every word of a route step as the program once hashed it, one word
    /// at a time: `(src, dst, relay)` in the sources' emission order.
    fn enumerated_words(
        n: usize,
        seed: u64,
        pattern: impl Fn(usize) -> Vec<(usize, usize)>,
    ) -> Vec<(usize, usize, u16)> {
        let mut words = Vec::new();
        for src in 0..n {
            for (dst, len) in pattern(src) {
                for j in 0..len {
                    words.push((src, dst, single_hash_relay(seed, n, src, dst, j) as u16));
                }
            }
        }
        words
    }

    /// Checks all three hops of `table` against the per-word enumeration.
    fn assert_table_matches(
        table: &StepTable,
        n: usize,
        seed: u64,
        step: &str,
        pattern: impl Fn(usize) -> Vec<(usize, usize)>,
    ) {
        let words = enumerated_words(n, seed, &pattern);
        // Send: every source's relay sequence.
        for src in 0..n {
            let relays: Vec<u16> = words.iter().filter(|w| w.0 == src).map(|w| w.2).collect();
            assert_eq!(table.stream(src), relays, "{step} n={n} src={src} relays");
        }
        for me in 0..n {
            // Forward: what relay `me` receives from each source.
            let mut rows = vec![Vec::new(); n];
            for &(src, dst, relay) in &words {
                if relay as usize == me {
                    rows[src].push(dst as u16);
                }
            }
            for (src, row) in rows.iter().enumerate() {
                assert_eq!(table.row(me, src), row, "{step} n={n} relay={me} src={src}");
            }
            // Reassembly: the messages addressed to `me`, and the `(src,
            // relay)` of every word they hold, read through the send table.
            let mut messages = Vec::new();
            for src in 0..n {
                let mut start = 0;
                for (dst, len) in pattern(src) {
                    if dst == me {
                        let [src, start, len] = [src, start, len].map(|x| x as u32);
                        messages.push(Message { src, start, len });
                    }
                    start += len;
                }
            }
            assert_eq!(
                table.inbound(me),
                messages,
                "{step} n={n} dst={me} messages"
            );
            let read: Vec<(usize, u16)> = table
                .inbound(me)
                .iter()
                .flat_map(|m| {
                    let relays =
                        &table.stream(m.src as usize)[m.start as usize..][..m.len as usize];
                    relays.iter().map(move |&r| (m.src as usize, r))
                })
                .collect();
            let expected: Vec<(usize, u16)> = words
                .iter()
                .filter(|w| w.1 == me)
                .map(|w| (w.0, w.2))
                .collect();
            assert_eq!(read, expected, "{step} n={n} dst={me} reassembly order");
        }
    }

    #[test]
    fn tabulated_schedule_equals_the_per_relay_enumeration() {
        for (n, seed) in [(8usize, 3u64), (27, 0x5eed_c11e), (30, 7), (64, u64::MAX)] {
            let plan = Plan3d::new(n);
            let schedule = RelaySchedule::shared(n, seed);
            assert_table_matches(&schedule.scatter, n, seed, "scatter", |src| {
                scatter_pattern(&plan, src)
            });
            assert_table_matches(&schedule.gather, n, seed, "gather", |src| {
                gather_pattern(&plan, src)
            });
        }
    }

    /// The program's per-barrier pattern fingerprints at the benchmark's
    /// size, recorded before the relay hops became table-driven: the
    /// pattern depends on `n` and the seed alone, never on the graph.
    #[test]
    fn pattern_fingerprints_at_n64_are_pinned() {
        const PINNED: [u64; 7] = [
            0x0097_059c_9d42_61a2,
            0x9349_bf67_8b05_56ae,
            0xc0c0_769a_aeb1_2b0b,
            0x6ed8_2cee_8831_d3f3,
            0x38f1_e7a8_bdc4_44a5,
            0x38f1_e7a8_bdc4_44a5,
            0xcbf2_9ce4_8422_2325,
        ];
        for graph_seed in [7u64, 1] {
            let g = generators::gnp(64, 0.3, graph_seed);
            let mut clique = Clique::with_config(
                64,
                CliqueConfig {
                    relay_policy: RelayPolicy::SingleHash,
                    record_patterns: true,
                    ..CliqueConfig::default()
                },
            );
            assert_eq!(
                count_triangles_program(&mut clique, &g),
                oracle::count_triangles(&g)
            );
            assert_eq!(
                clique.stats().pattern_fingerprints(),
                PINNED,
                "graph seed {graph_seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "relay tables hold node ids as u16: n=65537")]
    fn a_clique_beyond_u16_node_ids_is_refused() {
        let _ = StepTable::build(65_537, 0, |_| Vec::new());
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

    /// Steps node 0 of an 8-clique through the scatter's reassembly round
    /// with `delta` words more (or fewer) on one relay's stream than the
    /// schedule says, and returns that relay and the refusal.
    fn reassemble_with_a_wrong_stream(delta: isize) -> (usize, String) {
        let (n, seed) = (8usize, 5u64);
        let g = generators::gnp(n, 0.5, 1);
        let schedule = RelaySchedule::shared(n, seed);
        let mut unicast: Vec<Vec<u64>> = (0..n)
            .map(|relay| {
                let to_me = |src| schedule.scatter.row(relay, src).iter().filter(|&&d| d == 0);
                vec![0; (0..n).map(|src| to_me(src).count()).sum()]
            })
            .collect();
        let relay = (0..n).rev().find(|&r| !unicast[r].is_empty()).unwrap();
        let len = unicast[relay].len() as isize + delta;
        unicast[relay].resize(len as usize, 0);
        let runs = unicast.iter().enumerate().map(|(src, w)| (src, 0, &w[..]));
        let (unicast, lanes) = (LinkSlab::from_runs(n, runs), vec![Vec::new(); n]);
        let mut program = TriangleProgram::new(&g, 0, seed);
        let refusal = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cc_runtime::step_node(&mut program, 2, NodeInbox::new(&unicast, &lanes, 0));
        }))
        .expect_err("a wrong relay stream must be refused");
        (relay, *refusal.downcast::<String>().unwrap())
    }

    #[test]
    fn a_relay_stream_shorter_than_its_reassembly_row_is_refused() {
        let (relay, refusal) = reassemble_with_a_wrong_stream(-1);
        assert!(
            refusal.contains(&format!(
                "relay stream does not match the reassembly schedule \
                 (relay {relay}, destination 0)"
            )),
            "{refusal}"
        );
    }

    #[test]
    fn a_relay_stream_longer_than_its_reassembly_row_is_refused() {
        let (relay, refusal) = reassemble_with_a_wrong_stream(1);
        assert!(
            refusal.contains(&format!("(relay {relay}, destination 0)")),
            "{refusal}"
        );
    }

    /// A well-formed pre-run state for node 2 of a 6-clique.
    fn fresh_state() -> Vec<u64> {
        let g = generators::gnp(6, 0.5, 2);
        WireProgram::encode_state(&TriangleProgram::new(&g, 2, 9))
    }

    /// Node 2 of a 6-clique refuses `state`, naming the program and node.
    fn assert_refused(state: &[u64]) {
        let refused = TriangleProgram::decode_state(2, 6, state);
        let err = refused.expect_err("a malformed state must be refused");
        assert!(
            err.contains("malformed cc.triangle state for node 2"),
            "{err}"
        );
    }

    #[test]
    fn a_state_shorter_than_its_header_is_refused() {
        assert_refused(&fresh_state()[..4]);
    }

    #[test]
    fn a_state_with_a_partial_square_row_is_refused() {
        // Claims a 3-word A² row on a 6-clique; the total length is kept
        // consistent with the claim so only the row length is wrong.
        let mut state = fresh_state();
        state[4] = 3;
        state.extend([0; 3]);
        assert_refused(&state);
    }

    #[test]
    fn a_state_whose_rows_do_not_fill_it_is_refused() {
        let mut state = fresh_state();
        state.pop();
        assert_refused(&state);
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
