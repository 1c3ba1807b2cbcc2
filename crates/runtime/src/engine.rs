//! The synchronous-round driver.

use crate::executor::{Executor, ExecutorKind};
use crate::loads::LinkLoads;
use crate::program::{Control, NodeInbox, NodeOutbox, NodeProgram, RoundCtx};
use crate::resident::{ResidentOutcome, WireProgram};
use crate::Word;
use std::sync::Arc;

/// Result of [`Engine::run`].
#[derive(Debug)]
pub struct RunReport<P> {
    /// Final program states, in node order.
    pub programs: Vec<P>,
    /// Link-level rounds charged: per engine round, the maximum per-link
    /// word count (the wire simulator's cost model).
    pub rounds: u64,
    /// Number of synchronous barriers executed.
    pub engine_rounds: u64,
    /// Total words that crossed links (self-addressed messages are free).
    pub words: u64,
}

/// The engine's round barrier: merges one round's outboxes into the next
/// round's inboxes and accounts the per-link traffic.
///
/// This is the seam that makes the barrier *pluggable*: the default
/// [`EngineFabric`] performs the classical in-process delivery (sharded by
/// destination on the engine's executor), while `cc-transport` adapts the
/// same contract onto message fabrics whose rendezvous crosses threads or
/// processes. Implementations must be deterministic — for a given outbox
/// sequence, the returned inboxes and canonical `(src, dst)`-ordered
/// [`LinkLoads`] may not depend on scheduling — which is what keeps
/// results, round counts, and pattern fingerprints bit-identical across
/// fabrics.
pub trait Fabric {
    /// Delivers one engine round: consumes the per-node outboxes (node
    /// order) and returns the next inboxes (node order) plus this round's
    /// link loads in canonical `(src, dst)` order.
    fn deliver_round(&mut self, n: usize, outboxes: Vec<NodeOutbox>)
        -> (Vec<NodeInbox>, LinkLoads);

    /// True when this fabric can host program-resident sessions — i.e.
    /// [`Fabric::run_resident`] would return `Some`. The engine checks this
    /// before paying for state serialization.
    fn is_resident(&self) -> bool {
        false
    }

    /// Runs a whole program-resident session: ships the encoded `states`
    /// (node order) to workers of a fabric that owns its shards, lets
    /// rounds proceed worker-to-worker, and invokes `on_round` once per
    /// synchronous barrier with that round's canonical [`LinkLoads`] —
    /// exactly the loads the classical loop would have charged. Returns
    /// `None` when the fabric has no resident mode (the default), in which
    /// case the engine falls back to [`Fabric::deliver_round`] rounds.
    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<Word>>,
        on_round: &mut dyn FnMut(&LinkLoads),
    ) -> Option<ResidentOutcome> {
        let _ = (kind, states, on_round);
        None
    }

    /// True when this fabric injects node crash/restart faults. The engine
    /// then drives [`WireProgram`]s through the checkpointable classical
    /// loop (polling [`Fabric::take_crash`] after every barrier) instead of
    /// a resident session it could not interrupt mid-flight.
    fn has_fault_plan(&self) -> bool {
        false
    }

    /// Takes the node the fault plan crashed at the last barrier, if any.
    /// Destructive: each crash is surfaced exactly once.
    fn take_crash(&mut self) -> Option<usize> {
        None
    }

    /// Notifies the fabric that `node` restarted and its re-shipped program
    /// state occupies `state_words` words (so a conditioning fabric can
    /// charge the recovery's simulated cost). A no-op by default.
    fn on_recovery(&mut self, node: usize, state_words: usize) {
        let _ = (node, state_words);
    }
}

/// The default in-process [`Fabric`]: per-link loads tallied into one
/// `n²` table, inboxes assembled sharded by destination on the executor,
/// and broadcast slabs delivered zero-copy.
#[derive(Debug, Clone)]
pub struct EngineFabric {
    exec: Executor,
}

impl EngineFabric {
    /// Creates the fabric, delivering on `exec`.
    #[must_use]
    pub fn new(exec: Executor) -> Self {
        Self { exec }
    }
}

impl Fabric for EngineFabric {
    fn deliver_round(
        &mut self,
        n: usize,
        outboxes: Vec<NodeOutbox>,
    ) -> (Vec<NodeInbox>, LinkLoads) {
        let loads = link_loads(n, &outboxes);
        (deliver(&self.exec, n, outboxes), loads)
    }
}

/// Drives a set of [`NodeProgram`]s through synchronous rounds.
///
/// Per round the engine: (1) steps every live node — in parallel shards
/// under [`ExecutorKind::Parallel`] — each into its own outbox; (2) merges
/// outboxes at the barrier in node order, computing per-link loads in the
/// canonical `(src, dst)` order; (3) charges rounds equal to the maximum
/// per-link load; (4) builds the next inboxes sharded by destination. Steps
/// 2–4 live behind the [`Fabric`] seam (default: [`EngineFabric`]) and are
/// deterministic by construction, so neither the executor choice nor the
/// fabric ever changes results.
///
/// All fan-out goes through the [`Executor`] handle, so a pooled executor's
/// persistent workers serve both the stepping and the delivery shards — the
/// engine itself never spawns threads.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    exec: Executor,
}

impl Engine {
    /// Creates an engine running on the given backend.
    #[must_use]
    pub fn new(kind: ExecutorKind) -> Self {
        Self {
            exec: Executor::new(kind),
        }
    }

    /// Creates an engine from an existing executor handle.
    #[must_use]
    pub fn with_executor(exec: Executor) -> Self {
        Self { exec }
    }

    /// The engine's executor handle (a cheap clone; pooled executors share
    /// their worker pool across clones).
    #[must_use]
    pub fn executor(&self) -> Executor {
        self.exec.clone()
    }

    /// Runs the programs to completion (every node returned
    /// [`Control::Halt`]). See [`Engine::run_traced`] for load tracing.
    pub fn run<P: NodeProgram>(&self, programs: Vec<P>) -> RunReport<P> {
        self.run_traced(programs, |_| {})
    }

    /// Like [`Engine::run`], invoking `on_loads` once per engine round with
    /// that round's [`LinkLoads`] (entries in canonical `(src, dst)` order)
    /// so callers can record pattern fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn run_traced<P: NodeProgram>(
        &self,
        programs: Vec<P>,
        on_loads: impl FnMut(&LinkLoads),
    ) -> RunReport<P> {
        let mut fabric = EngineFabric::new(self.exec.clone());
        self.run_traced_on(&mut fabric, programs, on_loads)
    }

    /// Like [`Engine::run_traced`], delivering each round barrier through an
    /// explicit [`Fabric`] instead of the default in-process one. This is
    /// how transport backends plug in: the engine still steps node state
    /// machines on its executor, while outbox merging, inbox assembly, and
    /// link accounting happen wherever the fabric puts them (another
    /// thread's queue, another process's socket) — with results guaranteed
    /// identical by the fabric's determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn run_traced_on<P: NodeProgram>(
        &self,
        fabric: &mut dyn Fabric,
        programs: Vec<P>,
        on_loads: impl FnMut(&LinkLoads),
    ) -> RunReport<P> {
        self.run_classical(fabric, programs, on_loads, |_, _| {})
    }

    /// The classical round loop shared by [`Engine::run_traced_on`] and the
    /// crash-recovery wire path: step, deliver through the fabric, account,
    /// then hand the fabric and program states to `after_round` — the seam
    /// where a fault-injecting fabric gets its crashed node re-shipped.
    /// The hook must be state-preserving (or restore an equivalent state):
    /// the loop continues with whatever programs it leaves behind.
    fn run_classical<P: NodeProgram>(
        &self,
        fabric: &mut dyn Fabric,
        mut programs: Vec<P>,
        mut on_loads: impl FnMut(&LinkLoads),
        mut after_round: impl FnMut(&mut dyn Fabric, &mut [P]),
    ) -> RunReport<P> {
        let n = programs.len();
        assert!(n > 0, "cannot run an empty program set");
        let mut inboxes: Vec<NodeInbox> = (0..n).map(|_| NodeInbox::empty(n)).collect();
        let mut halted = vec![false; n];
        let mut live = n;
        let mut rounds = 0u64;
        let mut words = 0u64;
        let mut engine_rounds = 0u64;

        let tel = cc_telemetry::global();
        // Observer-only: timestamps are taken only when round tracing is on,
        // and nothing below ever reads an emitted event back.
        let timed = tel.enabled(cc_telemetry::TraceLevel::Rounds);

        while live > 0 {
            let step_start = timed.then(std::time::Instant::now);
            let outboxes = self.step_all(&mut programs, &inboxes, &mut halted, engine_rounds);
            let step_ns = step_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            live = halted.iter().filter(|&&h| !h).count();
            engine_rounds += 1;

            let barrier_start = timed.then(std::time::Instant::now);
            let (delivered, loads) = fabric.deliver_round(n, outboxes);
            let barrier_ns = barrier_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            on_loads(&loads);
            rounds += loads.rounds();
            words += loads.words();
            tel.emit(cc_telemetry::TraceLevel::Rounds, || {
                cc_telemetry::Event::EngineRound {
                    round: engine_rounds - 1,
                    live,
                    step_ns,
                    barrier_ns,
                    rounds: loads.rounds(),
                    words: loads.words(),
                }
            });
            inboxes = delivered;
            after_round(fabric, &mut programs);
        }

        RunReport {
            programs,
            rounds,
            engine_rounds,
            words,
        }
    }

    /// Like [`Engine::run_traced_on`] for [`WireProgram`]s: if the fabric
    /// hosts program-resident sessions, the encoded program states are
    /// shipped to its workers once, rounds proceed worker-to-worker, and
    /// the final states are decoded back — otherwise this is exactly
    /// [`Engine::run_traced_on`]. Either way `on_loads` sees the same
    /// per-round canonical [`LinkLoads`] sequence and the report charges
    /// the same rounds and words, so the two paths are observer-identical.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty, or if a resident fabric returns a
    /// final-state set of the wrong size.
    pub fn run_wire_traced_on<P: WireProgram>(
        &self,
        fabric: &mut dyn Fabric,
        programs: Vec<P>,
        mut on_loads: impl FnMut(&LinkLoads),
    ) -> RunReport<P> {
        let n = programs.len();
        assert!(n > 0, "cannot run an empty program set");
        if fabric.has_fault_plan() {
            return self.run_wire_recovering(fabric, programs, on_loads);
        }
        if !fabric.is_resident() {
            return self.run_traced_on(fabric, programs, on_loads);
        }
        let states: Vec<Vec<Word>> = programs.iter().map(WireProgram::encode_state).collect();
        let mut rounds = 0u64;
        let mut words = 0u64;
        let outcome = fabric.run_resident(P::KIND, states, &mut |loads| {
            on_loads(loads);
            rounds += loads.rounds();
            words += loads.words();
        });
        match outcome {
            Some(outcome) => {
                assert_eq!(
                    outcome.finals.len(),
                    n,
                    "resident fabric must return one final state per node"
                );
                let programs = outcome
                    .finals
                    .iter()
                    .enumerate()
                    .map(|(node, state)| P::decode_state(node, n, state))
                    .collect();
                RunReport {
                    programs,
                    rounds,
                    engine_rounds: outcome.engine_rounds,
                    words,
                }
            }
            // Advertised residency but declined this session: run the
            // classical round loop instead.
            None => self.run_traced_on(fabric, programs, on_loads),
        }
    }

    /// The crash-recovery wire loop: the classical round loop, but after
    /// every barrier the fabric's fault plan is polled. A crashed node's
    /// program is checkpointed through the [`WireProgram`] codec — encoded,
    /// then decoded into a freshly restarted replacement, exactly the bytes
    /// a restarted worker would have been re-shipped — and the fabric is
    /// told so it can charge the recovery's simulated cost. Because
    /// `decode(encode(p))` reconstructs `p` exactly (the codec contract),
    /// results stay bit-identical to a faultless run; only the fabric's
    /// simulated-time accounting moves.
    fn run_wire_recovering<P: WireProgram>(
        &self,
        fabric: &mut dyn Fabric,
        programs: Vec<P>,
        on_loads: impl FnMut(&LinkLoads),
    ) -> RunReport<P> {
        let n = programs.len();
        self.run_classical(fabric, programs, on_loads, |fabric, programs| {
            while let Some(node) = fabric.take_crash() {
                let state = programs[node].encode_state();
                programs[node] = P::decode_state(node, n, &state);
                fabric.on_recovery(node, state.len());
            }
        })
    }

    /// Steps every live node once, returning outboxes in node order.
    fn step_all<P: NodeProgram>(
        &self,
        programs: &mut [P],
        inboxes: &[NodeInbox],
        halted: &mut [bool],
        round: u64,
    ) -> Vec<NodeOutbox> {
        let n = programs.len();
        // One piece per node, dispatched on the executor (inline when
        // sequential or below the cutover, pooled otherwise):
        // `map_chunks_mut` hands each worker exclusive ownership of its
        // `(program, halted)` pairs and merges outboxes back in node order
        // — deterministic by construction. The engine itself never spawns.
        let mut pairs: Vec<(&mut P, &mut bool)> =
            programs.iter_mut().zip(halted.iter_mut()).collect();
        self.exec.map_chunks_mut(&mut pairs, 1, |node, piece| {
            let (p, h) = &mut piece[0];
            let mut outbox = NodeOutbox::default();
            if !**h {
                let mut ctx = RoundCtx {
                    node,
                    n,
                    round,
                    inbox: &inboxes[node],
                    outbox: &mut outbox,
                };
                if p.round(&mut ctx) == Control::Halt {
                    **h = true;
                }
            }
            outbox
        })
    }
}

/// Builds the next round's inboxes, sharded by destination.
fn deliver(exec: &Executor, n: usize, mut outboxes: Vec<NodeOutbox>) -> Vec<NodeInbox> {
    /// One destination's pending `(src, payload)` deliveries.
    type Bucket = Vec<(usize, Vec<Word>)>;

    // Shard step: bucket unicast payloads by destination. Entries land
    // in (src, send-order) order because sources are drained in index
    // order — the per-destination assembly below is order-preserving.
    let mut buckets: Vec<Bucket> = (0..n).map(|_| Vec::new()).collect();
    for (src, outbox) in outboxes.iter_mut().enumerate() {
        for (dst, payload) in outbox.unicast.drain(..) {
            buckets[dst].push((src, payload));
        }
    }
    let broadcasts: Vec<Vec<Arc<[Word]>>> = outboxes
        .iter_mut()
        .map(|o| std::mem::take(&mut o.broadcast))
        .collect();

    // Per-destination assembly runs on the executor; `map_chunks_mut`
    // hands each worker exclusive ownership of its bucket.
    exec.map_chunks_mut(&mut buckets, 1, |_dst, piece| {
        let entries = std::mem::take(&mut piece[0]);
        let mut inbox = NodeInbox::empty(n);
        for (src, payload) in entries {
            if inbox.unicast[src].is_empty() {
                inbox.unicast[src] = payload;
            } else {
                inbox.unicast[src].extend(payload);
            }
        }
        for (src, slabs) in broadcasts.iter().enumerate() {
            if !slabs.is_empty() {
                // Zero-copy: recipients share the sender's slabs.
                inbox.broadcast[src] = slabs.clone();
            }
        }
        inbox
    })
}

/// Per-link loads of one engine round, tallied straight into the
/// destination-major table. Self-addressed messages are local moves and
/// carry no load.
///
/// Costs O(n²) per round whatever the traffic: the table holds all n²
/// links, and building [`LinkLoads`] scans it once. [`deliver`] already
/// builds 2n² inbox lanes per round, so this adds about a twelfth to the
/// memory a round touches (on a 2-CPU x86-64 host a one-word-per-node
/// ring round took ≈ 3–4 % longer at n = 1024 and n = 2048 than with a
/// sparse tally).
fn link_loads(n: usize, outboxes: &[NodeOutbox]) -> LinkLoads {
    let mut counts = vec![0u32; n * n];
    let mut charge = |src: usize, dst: usize, words: usize| {
        if words > 0 && dst != src {
            let count = &mut counts[dst * n + src];
            *count = LinkLoads::count(src, dst, *count as usize + words);
        }
    };
    for (src, outbox) in outboxes.iter().enumerate() {
        if outbox.is_empty() {
            continue;
        }
        for (dst, payload) in &outbox.unicast {
            charge(src, *dst, payload.len());
        }
        let bcast: usize = outbox.broadcast.iter().map(|s| s.len()).sum();
        for dst in 0..n {
            charge(src, dst, bcast);
        }
    }
    LinkLoads::from_counts(n, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `round * 10 + node` to the next node for `k` rounds, recording
    /// everything received.
    struct RingProgram {
        k: u64,
        log: Vec<Word>,
    }

    impl NodeProgram for RingProgram {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
            let prev = (ctx.node() + ctx.n() - 1) % ctx.n();
            self.log.extend_from_slice(ctx.received(prev));
            if ctx.round() < self.k {
                let next = (ctx.node() + 1) % ctx.n();
                ctx.send(next, vec![ctx.round() * 10 + ctx.node() as Word]);
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    fn ring(n: usize, k: u64) -> Vec<RingProgram> {
        (0..n).map(|_| RingProgram { k, log: Vec::new() }).collect()
    }

    #[test]
    fn ring_messages_arrive_in_order() {
        let report = Engine::new(ExecutorKind::Sequential).run(ring(4, 3));
        // Node 1 hears from node 0 in rounds 1..=3: 0, 10, 20.
        assert_eq!(report.programs[1].log, vec![0, 10, 20]);
        assert_eq!(report.engine_rounds, 4);
        assert_eq!(report.rounds, 3); // one word per link per sending round
    }

    #[test]
    fn parallel_matches_sequential_on_the_ring() {
        let seq = Engine::new(ExecutorKind::Sequential).run(ring(16, 5));
        let par = Engine::new(ExecutorKind::Parallel { threads: 4 }).run(ring(16, 5));
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.engine_rounds, par.engine_rounds);
        assert_eq!(seq.words, par.words);
        for (a, b) in seq.programs.iter().zip(&par.programs) {
            assert_eq!(a.log, b.log);
        }
    }

    #[test]
    fn broadcast_slabs_are_shared_not_cloned() {
        struct OneShot {
            seen: usize,
        }
        impl NodeProgram for OneShot {
            fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
                if ctx.round() == 0 {
                    if ctx.node() == 0 {
                        ctx.broadcast(vec![7, 8, 9]);
                    }
                    Control::Continue
                } else {
                    self.seen = ctx.broadcasts_from(0).map(<[Word]>::len).sum();
                    Control::Halt
                }
            }
        }
        let report = Engine::new(ExecutorKind::Sequential)
            .run((0..8).map(|_| OneShot { seen: 0 }).collect());
        assert!(report.programs.iter().all(|p| p.seen == 3));
        // One 3-word slab on 7 links: 3 rounds, 21 words.
        assert_eq!(report.rounds, 3);
        assert_eq!(report.words, 21);
    }

    #[test]
    fn self_messages_are_free() {
        struct SelfTalk;
        impl NodeProgram for SelfTalk {
            fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
                if ctx.round() == 0 {
                    let me = ctx.node();
                    ctx.send(me, vec![1, 2, 3]);
                    Control::Continue
                } else {
                    assert_eq!(ctx.received(ctx.node()), &[1, 2, 3]);
                    Control::Halt
                }
            }
        }
        let report = Engine::new(ExecutorKind::Sequential).run(vec![SelfTalk, SelfTalk]);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.words, 0);
    }

    #[test]
    fn crash_recovery_replays_the_faultless_run_bit_for_bit() {
        use crate::resident::EchoRingProgram;

        /// Wraps the default fabric with a scripted fault plan: after the
        /// barriers listed in `crash_at`, the matching node "crashes" and
        /// must be re-shipped through the WireProgram codec.
        #[derive(Debug)]
        struct CrashyFabric {
            inner: EngineFabric,
            barriers: u64,
            crash_at: Vec<(u64, usize)>,
            pending: Option<usize>,
            recoveries: Vec<(usize, usize)>,
        }

        impl Fabric for CrashyFabric {
            fn deliver_round(
                &mut self,
                n: usize,
                outboxes: Vec<NodeOutbox>,
            ) -> (Vec<NodeInbox>, LinkLoads) {
                let out = self.inner.deliver_round(n, outboxes);
                if let Some(&(_, node)) = self.crash_at.iter().find(|(b, _)| *b == self.barriers) {
                    self.pending = Some(node);
                }
                self.barriers += 1;
                out
            }

            fn has_fault_plan(&self) -> bool {
                true
            }

            fn take_crash(&mut self) -> Option<usize> {
                self.pending.take()
            }

            fn on_recovery(&mut self, node: usize, state_words: usize) {
                self.recoveries.push((node, state_words));
            }
        }

        let n = 6;
        let engine = Engine::new(ExecutorKind::Sequential);
        let plain = engine.run((0..n).map(|_| EchoRingProgram::new(4)).collect());

        let mut fabric = CrashyFabric {
            inner: EngineFabric::new(engine.executor()),
            barriers: 0,
            crash_at: vec![(1, 2), (3, 0)],
            pending: None,
            recoveries: Vec::new(),
        };
        let mut trace = Vec::new();
        let report = engine.run_wire_traced_on(
            &mut fabric,
            (0..n).map(|_| EchoRingProgram::new(4)).collect::<Vec<_>>(),
            |l| trace.push(l.iter().collect::<Vec<_>>()),
        );

        assert_eq!(report.rounds, plain.rounds);
        assert_eq!(report.words, plain.words);
        assert_eq!(report.engine_rounds, plain.engine_rounds);
        for (node, (a, b)) in report.programs.iter().zip(&plain.programs).enumerate() {
            assert_eq!(a, b, "node {node} diverged after crash recovery");
        }
        // Both crashes were surfaced, and the re-shipped states carried the
        // programs' real encoded sizes.
        assert_eq!(
            fabric
                .recoveries
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>(),
            vec![2, 0]
        );
        assert!(fabric.recoveries.iter().all(|&(_, words)| words > 0));
    }

    #[test]
    fn load_trace_is_canonical_and_stable() {
        let mut seq_trace = Vec::new();
        let mut par_trace = Vec::new();
        Engine::new(ExecutorKind::Sequential)
            .run_traced(ring(9, 4), |l| seq_trace.push(l.iter().collect::<Vec<_>>()));
        Engine::new(ExecutorKind::Parallel { threads: 3 })
            .run_traced(ring(9, 4), |l| par_trace.push(l.iter().collect::<Vec<_>>()));
        assert_eq!(seq_trace, par_trace);
        for round in &seq_trace {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, round, "loads must be in (src, dst) order");
        }
    }
}
