//! The synchronous-round driver.

use crate::executor::{Executor, ExecutorKind};
use crate::loads::LinkLoads;
use crate::program::{Control, NodeInbox, NodeProgram};
use crate::resident::{step_node, ResidentOutcome, WireProgram};
use crate::{BcastLanes, LinkSlab, Outbox, RoundDelivery, Word};

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

/// The engine's round barrier: turns one round's gathered traffic into
/// the delivery the next round reads, and accounts the per-link words.
///
/// This is the seam that makes the barrier *pluggable*. The default body
/// is the in-memory delivery ([`RoundDelivery::in_memory`]), which is what
/// [`Engine::run`] uses; `cc-clique`'s `Network` adapts the same contract
/// onto message fabrics whose rendezvous crosses threads or processes.
/// Implementations must be deterministic — for given traffic, the returned
/// delivery and its canonical `(src, dst)`-ordered [`LinkLoads`] may not
/// depend on scheduling — which is what keeps results, round counts, and
/// pattern fingerprints bit-identical across fabrics.
pub trait Fabric {
    /// Delivers one engine round: takes the round's unicast traffic,
    /// gathered from every node's [`Outbox`] into one slab, and the
    /// broadcast lanes (one per source), and returns what the next round
    /// reads plus this round's link loads.
    fn deliver_round(&mut self, unicast: LinkSlab, broadcast: BcastLanes) -> RoundDelivery {
        RoundDelivery::in_memory(unicast, broadcast)
    }

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

/// The engine's default barrier: [`Fabric`]'s in-memory delivery.
struct InMemory;

impl Fabric for InMemory {}

/// Drives a set of [`NodeProgram`]s through synchronous rounds.
///
/// Per round the engine: (1) steps every live node — in parallel shards
/// under [`ExecutorKind::Parallel`] — each into its own [`Outbox`] and
/// broadcast lane; (2) gathers the outboxes in node order into one
/// [`LinkSlab`] (a counting sort); (3) hands slab and lanes to the
/// [`Fabric`] (default: the in-memory delivery), which returns the
/// delivered slab and the round's per-link loads; (4) charges rounds equal
/// to the maximum per-link load. Every node's next inbox is a view of its
/// row of the delivered slab, so no per-node inbox is built. Steps 2–4 are
/// deterministic by construction, so neither the executor choice nor the
/// fabric ever changes results.
///
/// All fan-out goes through the [`Executor`] handle, so a pooled executor's
/// persistent workers step the nodes — the engine itself never spawns
/// threads.
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
        self.run_traced_on(&mut InMemory, programs, on_loads)
    }

    /// Like [`Engine::run_traced`], delivering each round barrier through an
    /// explicit [`Fabric`] instead of the default in-memory one. This is
    /// how transport backends plug in: the engine still steps node state
    /// machines on its executor and gathers their outboxes, while delivery
    /// and link accounting happen wherever the fabric puts them (another
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
        let mut delivered = RoundDelivery::in_memory(LinkSlab::empty(n), vec![Vec::new(); n]);
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
            let (outboxes, lanes) =
                self.step_all(&mut programs, &delivered, &mut halted, engine_rounds);
            let step_ns = step_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            live = halted.iter().filter(|&&h| !h).count();
            engine_rounds += 1;

            let barrier_start = timed.then(std::time::Instant::now);
            delivered = fabric.deliver_round(LinkSlab::gather(n, 0, &outboxes), lanes);
            let barrier_ns = barrier_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let loads = &delivered.loads;
            on_loads(loads);
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
    /// final-state set of the wrong size or a final state that does not
    /// decode (the message names the program kind and the node), and
    /// likewise if a crashed node's checkpoint does not decode.
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
                    .map(|(node, state)| {
                        P::decode_state(node, n, state).unwrap_or_else(|e| {
                            panic!(
                                "final {} state of node {node} does not decode: {e}",
                                P::KIND
                            )
                        })
                    })
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
                programs[node] = P::decode_state(node, n, &state).unwrap_or_else(|e| {
                    panic!("checkpoint of {} node {node} does not decode: {e}", P::KIND)
                });
                fabric.on_recovery(node, state.len());
            }
        })
    }

    /// Steps every live node once over its view of `delivered`, returning
    /// the outboxes and broadcast lanes in node order.
    fn step_all<P: NodeProgram>(
        &self,
        programs: &mut [P],
        delivered: &RoundDelivery,
        halted: &mut [bool],
        round: u64,
    ) -> (Vec<Outbox>, BcastLanes) {
        // One piece per node, dispatched on the executor (inline when
        // sequential or below the cutover, pooled otherwise):
        // `map_chunks_mut` hands each worker exclusive ownership of its
        // `(program, halted)` pairs and merges the results back in node
        // order — deterministic by construction. The engine itself never
        // spawns.
        let mut pairs: Vec<(&mut P, &mut bool)> =
            programs.iter_mut().zip(halted.iter_mut()).collect();
        let stepped = self.exec.map_chunks_mut(&mut pairs, 1, |node, piece| {
            let (p, h) = &mut piece[0];
            if **h {
                return (Outbox::new(), Vec::new());
            }
            let inbox = NodeInbox::new(&delivered.unicast, &delivered.broadcast, node);
            let (control, outbox, broadcast) = step_node(*p, round, inbox);
            **h = control == Control::Halt;
            (outbox, broadcast)
        });
        stepped.into_iter().unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RoundCtx;
    use std::sync::Arc;

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
            slab: Option<Arc<[Word]>>,
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
                    self.slab = ctx.inbox.broadcast[0].first().cloned();
                    Control::Halt
                }
            }
        }
        let report = Engine::new(ExecutorKind::Sequential).run(
            (0..8)
                .map(|_| OneShot {
                    seen: 0,
                    slab: None,
                })
                .collect(),
        );
        assert!(report.programs.iter().all(|p| p.seen == 3));
        let slab = |node: usize| report.programs[node].slab.as_ref().unwrap();
        assert!(
            Arc::ptr_eq(slab(3), slab(7)),
            "every recipient reads the sender's one allocation"
        );
        // One 3-word slab on 7 links: 3 rounds, 21 words.
        assert_eq!(report.rounds, 3);
        assert_eq!(report.words, 21);
    }

    #[test]
    #[should_panic(expected = "destination 5 out of range (n=4)")]
    fn a_send_out_of_range_fails_at_the_send() {
        struct Stray;
        impl NodeProgram for Stray {
            fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
                if ctx.node() == 2 {
                    ctx.send(5, vec![1]);
                }
                Control::Halt
            }
        }
        let _ = Engine::new(ExecutorKind::Sequential).run((0..4).map(|_| Stray).collect());
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

        /// The default barrier with a scripted fault plan: after the
        /// barriers listed in `crash_at`, the matching node "crashes" and
        /// must be re-shipped through the WireProgram codec.
        #[derive(Debug)]
        struct CrashyFabric {
            barriers: u64,
            crash_at: Vec<(u64, usize)>,
            pending: Option<usize>,
            recoveries: Vec<(usize, usize)>,
        }

        impl Fabric for CrashyFabric {
            fn deliver_round(&mut self, unicast: LinkSlab, broadcast: BcastLanes) -> RoundDelivery {
                let out = RoundDelivery::in_memory(unicast, broadcast);
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
    #[should_panic(expected = "final cc.echo-ring state of node 0 does not decode")]
    fn a_resident_final_state_that_does_not_decode_names_kind_and_node() {
        use crate::resident::EchoRingProgram;

        /// A resident fabric whose workers hand back empty final states.
        struct Garbled;

        impl Fabric for Garbled {
            fn is_resident(&self) -> bool {
                true
            }

            fn run_resident(
                &mut self,
                _kind: &str,
                states: Vec<Vec<Word>>,
                _on_round: &mut dyn FnMut(&LinkLoads),
            ) -> Option<ResidentOutcome> {
                Some(ResidentOutcome {
                    finals: vec![Vec::new(); states.len()],
                    engine_rounds: 1,
                })
            }
        }

        let programs = (0..3).map(|_| EchoRingProgram::new(1)).collect::<Vec<_>>();
        let _ = Engine::new(ExecutorKind::Sequential).run_wire_traced_on(
            &mut Garbled,
            programs,
            |_| {},
        );
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
