//! Worker-resident node programs: state machines that can cross the wire.
//!
//! The engine's default mode keeps every [`NodeProgram`] in the
//! orchestrating process and ships only round traffic through the
//! [`crate::Fabric`]. Program-resident fabrics invert that: the program
//! *state* is serialized and shipped to workers **once**, the workers step
//! their shards locally and exchange round payloads directly with each
//! other, and the orchestrator's per-round role shrinks to brokering the
//! barrier and collecting final states.
//!
//! Three pieces make that possible without weakening the determinism
//! contract:
//!
//! * [`WireProgram`] — a [`NodeProgram`] whose full state round-trips
//!   through `Vec<Word>` (`encode_state`/`decode_state`) and that names
//!   itself with a stable [`WireProgram::KIND`] key;
//! * [`ResidentRegistry`] — the worker-side table mapping kind keys to
//!   decoders, so a generic worker binary can host any registered program;
//! * [`step_node`] — the one-round stepping helper workers call; it builds
//!   the same [`RoundCtx`] the engine builds, so a program cannot tell
//!   whether it runs orchestrator-side or worker-resident.
//!
//! A fabric advertises residency via [`crate::Fabric::run_resident`]; the
//! engine's `run_wire*` entry points try that path first and fall back to
//! the classical round loop, with results, rounds, words, and per-round
//! [`crate::LinkLoads`] sequences bit-identical either way.

use crate::program::{Control, NodeInbox, NodeOutbox, NodeProgram, RoundCtx};
use crate::Word;
use std::collections::BTreeMap;

/// A [`NodeProgram`] whose complete state can cross the wire as words.
///
/// `decode_state(node, n, &p.encode_state())` must reconstruct `p` exactly
/// — including any derived plan the program recomputes from `n` — so that a
/// program shipped to a worker behaves bit-identically to one that never
/// left the orchestrator.
pub trait WireProgram: NodeProgram + Sized + 'static {
    /// Stable registry key identifying this program kind on the wire.
    const KIND: &'static str;

    /// Serializes the program's complete state.
    fn encode_state(&self) -> Vec<Word>;

    /// Rebuilds node `node`'s program (clique size `n`) from encoded state.
    fn decode_state(node: usize, n: usize, state: &[Word]) -> Self;
}

/// Object-safe view of a worker-resident program: steppable (it is a
/// [`NodeProgram`]) and re-encodable for the final-state collection.
pub trait ResidentNode: NodeProgram {
    /// Serializes the program's complete state (see
    /// [`WireProgram::encode_state`]).
    fn encode_state(&self) -> Vec<Word>;
}

impl<P: WireProgram> ResidentNode for P {
    fn encode_state(&self) -> Vec<Word> {
        WireProgram::encode_state(self)
    }
}

type DecodeFn = fn(usize, usize, &[Word]) -> Box<dyn ResidentNode>;

/// Worker-side table of decodable program kinds.
///
/// A worker binary builds one registry at startup (generic transport
/// binaries use [`ResidentRegistry::with_builtins`]; binaries linked
/// against algorithm crates [`register`](ResidentRegistry::register) their
/// program types on top) and decodes every shipped shard through it.
/// Unknown kinds are a loud protocol error, not a silent fallback.
#[derive(Debug, Default)]
pub struct ResidentRegistry {
    decoders: BTreeMap<&'static str, DecodeFn>,
}

impl ResidentRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry preloaded with the crate's builtin test programs
    /// ([`EchoRingProgram`], [`ScriptProgram`]), enough for transport-level
    /// round-trip tests that have no algorithm crates linked in.
    #[must_use]
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        reg.register::<EchoRingProgram>();
        reg.register::<ScriptProgram>();
        reg
    }

    /// Registers `P` under its [`WireProgram::KIND`] key (last registration
    /// wins).
    pub fn register<P: WireProgram>(&mut self) {
        self.decoders.insert(P::KIND, |node, n, state| {
            Box::new(P::decode_state(node, n, state))
        });
    }

    /// Decodes node `node`'s program of the named kind, or `None` when the
    /// kind is unregistered.
    #[must_use]
    pub fn decode(
        &self,
        kind: &str,
        node: usize,
        n: usize,
        state: &[Word],
    ) -> Option<Box<dyn ResidentNode>> {
        self.decoders.get(kind).map(|f| f(node, n, state))
    }

    /// The registered kind keys, in sorted order.
    pub fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.decoders.keys().copied()
    }
}

/// Steps one program through one round, exactly as the engine would:
/// builds the [`RoundCtx`] over `inbox`, runs the program, and returns its
/// control decision plus the outbox it filled. This lives here (not in the
/// transport crates) because the context's internals are deliberately
/// private — workers get the same I/O surface as in-process programs, and
/// nothing else.
#[must_use]
pub fn step_node(
    program: &mut dyn NodeProgram,
    node: usize,
    n: usize,
    round: u64,
    inbox: &NodeInbox,
) -> (Control, NodeOutbox) {
    let mut outbox = NodeOutbox::default();
    let control = program.round(&mut RoundCtx {
        node,
        n,
        round,
        inbox,
        outbox: &mut outbox,
    });
    (control, outbox)
}

/// What a program-resident session hands back to the engine: the final
/// encoded state per node and how many synchronous barriers ran. Round and
/// word charges flow through the per-round loads callback instead, so the
/// engine accounts them exactly like the classical loop.
#[derive(Debug)]
pub struct ResidentOutcome {
    /// Final encoded program states, in node order.
    pub finals: Vec<Vec<Word>>,
    /// Number of synchronous barriers executed.
    pub engine_rounds: u64,
}

/// Builtin [`WireProgram`] used by transport tests: for `k` rounds each
/// node sends `round * 10 + node` to its ring successor while node 0
/// broadcasts a per-round marker; every node logs what it hears from its
/// ring predecessor and from the broadcasts. Exercises unicast lanes,
/// shared broadcast slabs, and multi-round halting without any algorithm
/// crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchoRingProgram {
    k: u64,
    log: Vec<Word>,
}

impl EchoRingProgram {
    /// A program that sends for `k` rounds (and halts on round `k`).
    #[must_use]
    pub fn new(k: u64) -> Self {
        Self { k, log: Vec::new() }
    }

    /// Everything this node heard, in round order.
    #[must_use]
    pub fn log(&self) -> &[Word] {
        &self.log
    }
}

impl NodeProgram for EchoRingProgram {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
        let (node, n) = (ctx.node(), ctx.n());
        let prev = (node + n - 1) % n;
        self.log.extend_from_slice(ctx.received(prev));
        for slab in ctx.broadcasts_from(0) {
            self.log.extend_from_slice(slab);
        }
        if ctx.round() < self.k {
            ctx.send((node + 1) % n, vec![ctx.round() * 10 + node as Word]);
            if node == 0 {
                ctx.broadcast(vec![ctx.round() ^ 0xff]);
            }
            Control::Continue
        } else {
            Control::Halt
        }
    }
}

impl WireProgram for EchoRingProgram {
    const KIND: &'static str = "cc.echo-ring";

    fn encode_state(&self) -> Vec<Word> {
        let mut state = Vec::with_capacity(1 + self.log.len());
        state.push(self.k);
        state.extend_from_slice(&self.log);
        state
    }

    fn decode_state(_node: usize, _n: usize, state: &[Word]) -> Self {
        Self {
            k: state[0],
            log: state[1..].to_vec(),
        }
    }
}

/// Builtin [`WireProgram`] for fabric tests that need a traffic pattern
/// [`EchoRingProgram`] cannot produce: the node replays a fixed script of
/// sends and broadcasts, in script order within a round, and logs everything
/// it hears — per round and source, the source, the word count, the words —
/// so two fabrics agree on the logs only if they agree on every delivery
/// and its per-link order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScriptProgram {
    /// Round the node halts in (after logging what the last sends brought).
    rounds: u64,
    /// `[round, dst, len, words…]` per action; `dst == BROADCAST` broadcasts.
    script: Vec<Word>,
    log: Vec<Word>,
}

impl ScriptProgram {
    const BROADCAST: Word = Word::MAX;

    /// A node that does nothing but listen until it halts in round `rounds`.
    #[must_use]
    pub fn new(rounds: u64) -> Self {
        Self {
            rounds,
            ..Self::default()
        }
    }

    /// Adds a unicast send of `words` to `dst` in `round`.
    #[must_use]
    pub fn send(self, round: u64, dst: usize, words: &[Word]) -> Self {
        self.action(round, dst as Word, words)
    }

    /// Adds a broadcast of `words` in `round`.
    #[must_use]
    pub fn broadcast(self, round: u64, words: &[Word]) -> Self {
        self.action(round, Self::BROADCAST, words)
    }

    fn action(mut self, round: u64, dst: Word, words: &[Word]) -> Self {
        assert!(round < self.rounds, "scripted past the halting round");
        self.script.extend([round, dst, words.len() as Word]);
        self.script.extend_from_slice(words);
        self
    }

    /// Everything this node heard, in round order.
    #[must_use]
    pub fn log(&self) -> &[Word] {
        &self.log
    }
}

impl NodeProgram for ScriptProgram {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
        for src in 0..ctx.n() {
            let heard = ctx.received(src);
            if !heard.is_empty() {
                self.log.extend([src as Word, heard.len() as Word]);
                self.log.extend_from_slice(heard);
            }
            for slab in ctx.broadcasts_from(src) {
                self.log
                    .extend([Self::BROADCAST - src as Word, slab.len() as Word]);
                self.log.extend_from_slice(slab);
            }
        }
        if ctx.round() == self.rounds {
            return Control::Halt;
        }
        let mut rest = self.script.as_slice();
        while let [round, dst, len, tail @ ..] = rest {
            let (words, tail) = tail.split_at(*len as usize);
            if *round == ctx.round() {
                if *dst == Self::BROADCAST {
                    ctx.broadcast(words.to_vec());
                } else {
                    ctx.send(*dst as usize, words.to_vec());
                }
            }
            rest = tail;
        }
        Control::Continue
    }
}

impl WireProgram for ScriptProgram {
    const KIND: &'static str = "cc.script";

    fn encode_state(&self) -> Vec<Word> {
        let mut state = vec![self.rounds, self.script.len() as Word];
        state.extend_from_slice(&self.script);
        state.extend_from_slice(&self.log);
        state
    }

    fn decode_state(_node: usize, _n: usize, state: &[Word]) -> Self {
        let (script, log) = state[2..].split_at(state[1] as usize);
        Self {
            rounds: state[0],
            script: script.to_vec(),
            log: log.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecutorKind};

    #[test]
    fn echo_ring_round_trips_through_its_wire_state() {
        let report = Engine::new(ExecutorKind::Sequential)
            .run((0..5).map(|_| EchoRingProgram::new(3)).collect());
        for (node, p) in report.programs.iter().enumerate() {
            let back = EchoRingProgram::decode_state(node, 5, &WireProgram::encode_state(p));
            assert_eq!(&back, p, "node {node}");
            assert!(!p.log().is_empty());
        }
    }

    #[test]
    fn registry_decodes_registered_kinds_only() {
        let reg = ResidentRegistry::with_builtins();
        assert_eq!(
            reg.kinds().collect::<Vec<_>>(),
            vec![EchoRingProgram::KIND, ScriptProgram::KIND]
        );
        let p = EchoRingProgram::new(2);
        let state = WireProgram::encode_state(&p);
        let mut boxed = reg
            .decode(EchoRingProgram::KIND, 1, 4, &state)
            .expect("builtin registered");
        assert_eq!(boxed.encode_state(), state);
        assert!(reg.decode("cc.unknown", 0, 4, &[]).is_none());

        // A decoded program steps exactly like the original.
        let inbox = NodeInbox::empty(4);
        let (control, outbox) = step_node(boxed.as_mut(), 1, 4, 0, &inbox);
        assert_eq!(control, Control::Continue);
        let (unicast, _) = outbox.into_parts();
        assert_eq!(unicast, vec![(2, vec![1])]);
    }

    #[test]
    fn scripts_replay_in_order_and_survive_the_wire_mid_run() {
        // Node 0 sends twice to node 1 in round 0 and broadcasts in round 1;
        // node 1 is checkpointed through its wire state after every round.
        let programs = vec![
            ScriptProgram::new(2)
                .send(0, 1, &[1, 2])
                .send(0, 1, &[3])
                .broadcast(1, &[9]),
            ScriptProgram::new(2),
        ];
        let report = Engine::new(ExecutorKind::Sequential).run(programs.clone());
        let b = ScriptProgram::BROADCAST;
        assert_eq!(report.programs[1].log(), &[0, 3, 1, 2, 3, b, 1, 9]);
        assert_eq!(report.programs[0].log(), &[b, 1, 9]);
        assert_eq!(report.engine_rounds, 3);

        let mut listener = programs[1].clone();
        let mut inbox = NodeInbox::empty(2);
        inbox.unicast[0] = vec![1, 2, 3];
        for round in 0..2 {
            let _ = step_node(&mut listener, 1, 2, round, &inbox);
            listener = ScriptProgram::decode_state(1, 2, &WireProgram::encode_state(&listener));
            inbox = NodeInbox::empty(2);
        }
        assert_eq!(listener.log(), &[0, 3, 1, 2, 3]);
    }

    #[test]
    fn step_node_matches_the_engine_loop() {
        // Drive the ring by hand with step_node + the default fabric's
        // delivery, and compare against Engine::run.
        let n = 4;
        let expected = Engine::new(ExecutorKind::Sequential)
            .run((0..n).map(|_| EchoRingProgram::new(2)).collect());

        let mut programs: Vec<EchoRingProgram> = (0..n).map(|_| EchoRingProgram::new(2)).collect();
        let mut inboxes: Vec<NodeInbox> = (0..n).map(|_| NodeInbox::empty(n)).collect();
        let mut halted = vec![false; n];
        let mut fabric = crate::EngineFabric::new(crate::Executor::new(ExecutorKind::Sequential));
        let mut round = 0u64;
        while halted.iter().any(|h| !h) {
            let mut outboxes = Vec::with_capacity(n);
            for (node, p) in programs.iter_mut().enumerate() {
                if halted[node] {
                    outboxes.push(NodeOutbox::default());
                    continue;
                }
                let (control, outbox) = step_node(p, node, n, round, &inboxes[node]);
                halted[node] = control == Control::Halt;
                outboxes.push(outbox);
            }
            let (delivered, _) = crate::Fabric::deliver_round(&mut fabric, n, outboxes);
            inboxes = delivered;
            round += 1;
        }
        for (a, b) in programs.iter().zip(&expected.programs) {
            assert_eq!(a, b);
        }
        assert_eq!(round, expected.engine_rounds);
    }
}
