//! # cc-runtime: a deterministic parallel execution engine
//!
//! The congested clique model is *embarrassingly parallel across nodes*:
//! within a round, every simulated node computes on its own state and the
//! messages it received, with no shared mutable state until the synchronous
//! round barrier. This crate exploits that structure to run simulations
//! across OS threads while keeping results **bit-identical** to sequential
//! execution.
//!
//! ## Pieces
//!
//! * [`Executor`] / [`ExecutorKind`] — pluggable execution backends.
//!   [`ExecutorKind::Sequential`] is the reference semantics;
//!   [`ExecutorKind::Parallel`] fans work out over a **persistent worker
//!   pool** (threads spawned once at `Executor::new`, parked between calls,
//!   joined when the last handle drops) and merges per-shard results at a
//!   deterministic barrier. Both backends produce the same outputs in the
//!   same order, so round counts, inbox contents and pattern fingerprints
//!   never depend on the backend (verified by the determinism property
//!   tests). Jobs smaller than a tunable cutover run inline
//!   ([`Executor::threads_for`]).
//! * [`NodeProgram`] — one node's per-round state machine:
//!   `fn round(&mut self, ctx: &mut RoundCtx) -> Control`. This replaces the
//!   global-lockstep closure style for algorithms that opt in: instead of a
//!   coordinator closure invoked per node id, each node owns its state and
//!   the engine drives all `n` state machines round by round.
//! * [`Engine`] — the synchronous-round driver: steps every live node
//!   (possibly in parallel), merges per-node outboxes at the round barrier,
//!   charges link-level rounds exactly like the wire simulator (a round
//!   costs the maximum per-link word count), and delivers the next round's
//!   inboxes via a sharded, per-destination build.
//! * Zero-copy broadcasts — [`RoundCtx::broadcast`] stores one shared
//!   `Arc<[Word]>` slab per broadcast; every recipient's inbox references
//!   the same allocation instead of cloning a `Vec<Word>` per recipient.
//!
//! ## Determinism contract
//!
//! For any program set, `Parallel` and `Sequential` execution produce
//! identical outputs, identical inbox contents, identical executed round
//! counts, and identical per-round link-load sequences. The engine achieves
//! this by only parallelising *independent per-node* work (stepping node
//! state machines, assembling per-destination inboxes) and merging results
//! in node-index order at each barrier.
//!
//! ## Variant ledger
//!
//! A variant stays while a `benchmark/` workload or probe runs on it, or it
//! covers a scenario nothing else does; no entry, no variant.
//!
//! | `CC_EXECUTOR` | earns its place with |
//! |---|---|
//! | `sequential` | every `benchmark/` workload runs on it: the reference semantics |
//! | `parallel[:threads]` | probe `runtime.map_us.parallel2`, and the executor cells of `tests/runtime_determinism.rs` (`exec_cutover: Some(2)`, so small sizes really dispatch) that hold the determinism contract |
//!
//! ## Example
//!
//! ```rust
//! use cc_runtime::{Control, Engine, ExecutorKind, NodeProgram, RoundCtx, Word};
//!
//! /// Each node broadcasts its id once, then sums everything it heard.
//! struct SumIds {
//!     total: Word,
//! }
//!
//! impl NodeProgram for SumIds {
//!     fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
//!         match ctx.round() {
//!             0 => {
//!                 ctx.broadcast(vec![ctx.node() as Word]);
//!                 Control::Continue
//!             }
//!             _ => {
//!                 for src in 0..ctx.n() {
//!                     for slab in ctx.broadcasts_from(src) {
//!                         self.total += slab.iter().sum::<Word>();
//!                     }
//!                 }
//!                 Control::Halt
//!             }
//!         }
//!     }
//! }
//!
//! let engine = Engine::new(ExecutorKind::Parallel { threads: 4 });
//! let programs = (0..8).map(|_| SumIds { total: 0 }).collect();
//! let report = engine.run(programs);
//! assert!(report.programs.iter().all(|p| p.total == 28)); // 0+1+..+7
//! assert_eq!(report.rounds, 1); // one broadcast word per link
//! ```

// `deny` rather than `forbid`: the persistent worker pool (`pool.rs`) opts
// into one audited unsafe block — the lifetime erasure that lets parked
// threads run caller-borrowed jobs, sound for the same structured-
// concurrency reason `std::thread::scope` is. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod executor;
mod loads;
mod pool;
mod program;
mod resident;

pub use crate::engine::{Engine, EngineFabric, Fabric, RunReport};
// The shared `CC_*` knob parser moved to the bottom of the crate stack
// (`cc-telemetry`) so malformed-env warnings can flow through the telemetry
// sink; re-exported here so `cc_runtime::env_config::*` call sites are
// unchanged.
pub use crate::executor::{Executor, ExecutorKind, DEFAULT_SEQ_CUTOVER};
pub use crate::loads::LinkLoads;
pub use crate::pool::threads_spawned as pool_threads_spawned;
pub use crate::program::{Control, NodeInbox, NodeOutbox, NodeProgram, RoundCtx};
pub use crate::resident::{
    step_node, EchoRingProgram, ResidentNode, ResidentOutcome, ResidentRegistry, ScriptProgram,
    WireProgram,
};
pub use cc_telemetry::env_config;

/// A single `O(log n)`-bit message word (the same convention as the wire
/// simulator: one `u64` per word).
pub type Word = u64;
