//! # cc-clique: a congested clique simulator
//!
//! This crate implements the **congested clique** model of distributed
//! computing: `n` nodes communicate in synchronous rounds over a complete
//! network, and in each round every ordered pair of nodes may exchange one
//! message of `O(log n)` bits (one [`Word`] in this implementation).
//!
//! The simulator is *faithful at the link level*: algorithms put words on
//! directed links, and [`Clique`] executes synchronous rounds in which each
//! link drains at most one word. The reported round count of an algorithm is
//! the number of rounds actually executed, never an analytic formula.
//!
//! ## Primitives
//!
//! * [`Clique::exchange`] — direct link-level exchange (each message travels
//!   on its own `(src, dst)` link).
//! * [`Clique::route`] — balanced two-phase routing in the style of
//!   Lenzen (PODC 2013): messages are spread over intermediate relays so that
//!   any instance where each node sends and receives at most `n` words
//!   completes in `O(1)` rounds. The relays of a step are drawn once per
//!   message shape (see "Relay schedules" below).
//! * [`Clique::broadcast`] / [`Clique::broadcast_vec`] — one-to-all
//!   broadcast of one word (or a word sequence) from every node.
//! * [`Clique::gossip`] — "learn everything": every node obtains the union of
//!   all contributed words in `O(total/n)` rounds.
//! * Reducers ([`Clique::sum_all`], [`Clique::or_all`], [`Clique::max_all`],
//!   [`Clique::min_all`]) — single-round aggregate + local fold.
//!
//! ## Execution backends
//!
//! Simulations run on a pluggable executor selected through
//! [`CliqueConfig::executor`]: [`ExecutorKind::Sequential`] (the default)
//! or [`ExecutorKind::Parallel`] — a **persistent worker pool** built once
//! at clique construction, reused by every step, joined when the clique
//! drops. The pool shards node-local computation and message delivery via
//! the [`cc_runtime`] engine while keeping results, round counts, and
//! pattern fingerprints bit-identical. [`Clique::exchange_par`]
//! / [`Clique::route_par`] / [`Clique::route_dynamic_par`] /
//! [`Clique::gossip_par`] accept `Fn + Sync` generators evaluated on the
//! backend — all but `gossip_par` write each node's messages into one flat
//! [`Outbox`] — and [`Clique::run_programs`] drives per-node [`NodeProgram`]
//! state machines round by round. The `CC_EXECUTOR` environment variable
//! retargets every default-configured clique.
//!
//! ## Transport backends
//!
//! Orthogonally to the executor, [`CliqueConfig::transport`] selects the
//! **message fabric** every communication step travels through (see
//! [`TransportKind`]): the in-memory fabric (the default) or true
//! multi-process simulation over unix sockets or TCP (`cc-clique-node`
//! worker processes, length-prefixed frames, round-commit barrier). Every primitive builds
//! its step's traffic as one flat destination-major buffer
//! (`cc_runtime::LinkSlab`, a two-pass counting sort over the generated
//! messages — for a [`Clique::route`] step whose shape repeats, one write
//! per word to a slot compiled once per shape) and hands it to the fabric
//! in one call; the
//! [`Inboxes`] it gets back are a view of the delivered buffer. Deliveries,
//! rounds, words, pattern fingerprints, and barrier epochs
//! ([`Clique::transport_epochs`]) are bit-identical across fabrics; the
//! `CC_TRANSPORT` environment variable (`inmemory` / `socket[:workers]` /
//! `tcp[-peer][:workers]`) retargets every default-configured clique exactly
//! like `CC_EXECUTOR`, and an unrecognised value is reported once instead
//! of being silently swallowed.
//!
//! ## Relay schedules
//!
//! The property the router's cache serves is **routed steps whose message
//! shape repeats within a process**. Which relay carries which word of a
//! [`Clique::route`] step depends only on `n`, the `route_seed`, the
//! [`RelayPolicy`] and the step's shape — the ordered `(src, dst, len)` of
//! its messages — and the paper's algebraic algorithms are oblivious: a
//! fast matrix product routes the same four shapes whatever the matrices
//! hold, and a Seidel or triangle query is a chain of such products. So a
//! step's schedule is drawn on first use, compiled, and kept in a
//! process-wide, least-recently-used cache bounded at 8 MiB of tables. The
//! compiled step holds, per word, its slot in the phase-A slab (`u32`) and
//! its offset inside its destination's phase-B row (`u16`, or `u32` when a
//! row outgrows 16 bits); per non-empty message, its place in the delivery
//! (`u32`); and both phases' per-link word counts (`u16` where they fit).
//! A later step with the same four-part key — the shape compared in full —
//! writes each word straight to its slot and copies each message once into
//! the delivery, with no hash and no per-link cursor. Steps whose shape
//! follows the data go through [`Clique::route_dynamic`], which draws per
//! call, builds no table and never touches the cache, as does any step
//! whose compiled tables would exceed the budget: both are scattered by a
//! cursor per link, one pass per phase. Cached or drawn, a step delivers
//! the same inboxes and charges the same rounds, words and fingerprints:
//! the fabric still derives its accounting from the slab it is handed.
//!
//! ## Network conditions
//!
//! [`CliqueConfig::netsim`] selects a seeded, fully deterministic
//! condition model (`cc-netsim`) that reads every round barrier the
//! clique commits, whichever fabric is selected — closure primitives,
//! engine rounds and resident sessions alike: per-link latency and
//! jitter, stragglers, message loss with bounded retransmission, and node
//! crash/restart fault plans. It sees each committed round's epoch and
//! per-link loads, never a delivery or the transport. Conditioning is
//! **observer-plus-recovery only** — results, rounds, words, and pattern
//! fingerprints stay bit-identical to an unconditioned run — while a new
//! accounting column, [`Stats::sim_time_ns`] / [`Clique::sim_time_ns`],
//! reports how long the run would have taken on the modelled network. The
//! `CC_NETSIM` environment variable (`off` / `lan` / `wan` / `lossy` /
//! `flaky-node`, optionally `:<seed>`) retargets every default-configured
//! clique, exactly like `CC_TRANSPORT`.
//!
//! ## Example
//!
//! ```rust
//! use cc_clique::Clique;
//!
//! let mut clique = Clique::new(8);
//! // Every node broadcasts its own id; afterwards everyone knows all ids.
//! let ids = clique.broadcast(|v| v as u64);
//! assert_eq!(ids, (0..8).collect::<Vec<u64>>());
//! assert_eq!(clique.rounds(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clique;
mod inbox;
mod network;
mod schedule;
mod stats;
mod word;

pub use crate::clique::{Clique, CliqueConfig, Mode, RelayPolicy};
pub use crate::inbox::Inboxes;
pub use crate::schedule::{route_schedule_stats, single_hash_relay};
pub use crate::stats::{PhaseStats, Stats};
pub use crate::word::{pack_pair, read_exact, unpack_pair, write_all, AsWords, Word, WordReader};
// Runtime surface, re-exported so algorithm crates need no direct
// `cc_runtime` dependency to opt in. The round's shared types — the
// link-level cost model `LinkLoads`, and the `Outbox` a node's messages are
// written to — live in `cc_runtime`, so engine- and clique-driven rounds
// share one definition.
pub use cc_runtime::{
    Control, Executor, ExecutorKind, LinkLoads, NodeProgram, Outbox, RoundCtx, WireProgram,
    WordWriter,
};
// Transport surface, re-exported for the same reason: `CliqueConfig`
// selects the fabric by `TransportKind`, and callers building custom
// fabrics implement `Transport`.
pub use cc_transport::{Transport, TransportKind};
// Network-condition surface: `CliqueConfig` selects the profile by
// `NetsimConfig`, so algorithm crates need no direct `cc_netsim`
// dependency to opt in.
pub use cc_netsim::{NetsimConfig, NetsimProfile};
