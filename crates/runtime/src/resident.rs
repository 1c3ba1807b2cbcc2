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

use crate::program::{Control, NodeInbox, NodeProgram, RoundCtx};
use crate::{Outbox, Word};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    ///
    /// # Errors
    ///
    /// Says why, when `state` is not an encoding of this kind for a clique
    /// of `n` nodes: the words come from another process, so a malformed
    /// state is an error for the caller to report, not a panic.
    fn decode_state(node: usize, n: usize, state: &[Word]) -> Result<Self, String>;
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

type DecodeFn = fn(usize, usize, &[Word]) -> Result<Box<dyn ResidentNode>, String>;

/// Worker-side table of decodable program kinds.
///
/// A worker binary builds one registry at startup (generic transport
/// binaries use [`ResidentRegistry::with_builtins`]; binaries linked
/// against algorithm crates [`register`](ResidentRegistry::register) their
/// program types on top) and decodes every shipped shard through it.
/// Unknown kinds and malformed states are errors, not a silent fallback.
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
            P::decode_state(node, n, state).map(|p| Box::new(p) as Box<dyn ResidentNode>)
        });
    }

    /// Decodes node `node`'s program of the named kind.
    ///
    /// # Errors
    ///
    /// Says why when the kind is unregistered or `state` is malformed.
    pub fn decode(
        &self,
        kind: &str,
        node: usize,
        n: usize,
        state: &[Word],
    ) -> Result<Box<dyn ResidentNode>, String> {
        let decode = self.decoders.get(kind).ok_or_else(|| {
            format!("unknown resident program kind {kind:?}; register it in the worker binary")
        })?;
        decode(node, n, state)
    }

    /// The registered kind keys, in sorted order.
    pub fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.decoders.keys().copied()
    }
}

/// Steps one program through one round, exactly as the engine does: builds
/// the [`RoundCtx`] over `inbox` (whose destination is the node stepped),
/// runs the program, and returns its control decision plus the [`Outbox`]
/// and broadcast lane it filled. This lives here (not in the transport
/// crates) because the context's internals are deliberately private —
/// workers get the same I/O surface as in-process programs, and nothing
/// else.
#[must_use]
pub fn step_node(
    program: &mut dyn NodeProgram,
    round: u64,
    inbox: NodeInbox<'_>,
) -> (Control, Outbox, Vec<Arc<[Word]>>) {
    let mut ctx = RoundCtx {
        round,
        inbox,
        outbox: Outbox::new(),
        broadcast: Vec::new(),
    };
    let control = program.round(&mut ctx);
    (control, ctx.outbox, ctx.broadcast)
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

    fn decode_state(node: usize, _n: usize, state: &[Word]) -> Result<Self, String> {
        let (&k, log) = state
            .split_first()
            .ok_or_else(|| format!("malformed {} state for node {node}: empty", Self::KIND))?;
        Ok(Self {
            k,
            log: log.to_vec(),
        })
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
                    ctx.broadcast(words);
                } else {
                    ctx.send(*dst as usize, words);
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

    fn decode_state(node: usize, _n: usize, state: &[Word]) -> Result<Self, String> {
        let malformed = || format!("malformed {} state for node {node}", Self::KIND);
        let [rounds, len, rest @ ..] = state else {
            return Err(malformed());
        };
        let (script, log) = usize::try_from(*len)
            .ok()
            .and_then(|len| rest.split_at_checked(len))
            .ok_or_else(malformed)?;
        Ok(Self {
            rounds: *rounds,
            script: script.to_vec(),
            log: log.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecutorKind, LinkSlab, RoundDelivery};

    #[test]
    fn echo_ring_round_trips_through_its_wire_state() {
        let report = Engine::new(ExecutorKind::Sequential)
            .run((0..5).map(|_| EchoRingProgram::new(3)).collect());
        for (node, p) in report.programs.iter().enumerate() {
            let back = EchoRingProgram::decode_state(node, 5, &WireProgram::encode_state(p));
            assert_eq!(back.as_ref(), Ok(p), "node {node}");
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
        let unknown = reg.decode("cc.unknown", 0, 4, &[]).err();
        assert!(unknown.is_some_and(|e| e.contains("unknown resident program kind")));
        // A registered kind refuses a malformed state instead of panicking.
        for kind in [EchoRingProgram::KIND, ScriptProgram::KIND] {
            let malformed = reg.decode(kind, 2, 4, &[]).err();
            assert!(malformed.is_some_and(|e| e.contains(kind) && e.contains("node 2")));
        }
        assert!(reg
            .decode(ScriptProgram::KIND, 0, 4, &[2, 3, 0, 0])
            .is_err());

        // A decoded program steps exactly like the original.
        let (nothing, lanes) = (LinkSlab::empty(4), vec![Vec::new(); 4]);
        let inbox = NodeInbox::new(&nothing, &lanes, 1);
        let (control, outbox, _) = step_node(boxed.as_mut(), 0, inbox);
        assert_eq!(control, Control::Continue);
        assert_eq!(outbox.messages().collect::<Vec<_>>(), vec![(2, &[1][..])]);
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
        let lanes = vec![Vec::new(); 2];
        let heard = LinkSlab::from_runs(2, [(0, 1, &[1, 2, 3][..])].into_iter());
        for (round, unicast) in [heard, LinkSlab::empty(2)].iter().enumerate() {
            let _ = step_node(
                &mut listener,
                round as u64,
                NodeInbox::new(unicast, &lanes, 1),
            );
            listener = ScriptProgram::decode_state(1, 2, &WireProgram::encode_state(&listener))
                .expect("a script's own state decodes");
        }
        assert_eq!(listener.log(), &[0, 3, 1, 2, 3]);
    }

    #[test]
    fn step_node_matches_the_engine_loop() {
        // Drive the ring by hand with step_node + the default barrier's
        // delivery, and compare against Engine::run.
        let n = 4;
        let expected = Engine::new(ExecutorKind::Sequential)
            .run((0..n).map(|_| EchoRingProgram::new(2)).collect());

        let mut programs: Vec<EchoRingProgram> = (0..n).map(|_| EchoRingProgram::new(2)).collect();
        let mut delivered = RoundDelivery::in_memory(LinkSlab::empty(n), vec![Vec::new(); n]);
        let mut halted = vec![false; n];
        let mut round = 0u64;
        while halted.iter().any(|h| !h) {
            let (mut outboxes, mut lanes) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for (node, p) in programs.iter_mut().enumerate() {
                if halted[node] {
                    outboxes.push(Outbox::new());
                    lanes.push(Vec::new());
                    continue;
                }
                let inbox = NodeInbox::new(&delivered.unicast, &delivered.broadcast, node);
                let (control, outbox, broadcast) = step_node(p, round, inbox);
                halted[node] = control == Control::Halt;
                outboxes.push(outbox);
                lanes.push(broadcast);
            }
            delivered = RoundDelivery::in_memory(LinkSlab::gather(n, 0, &outboxes), lanes);
            round += 1;
        }
        for (a, b) in programs.iter().zip(&expected.programs) {
            assert_eq!(a, b);
        }
        assert_eq!(round, expected.engine_rounds);
    }
}
