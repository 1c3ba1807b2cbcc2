//! # cc-transport: pluggable message transports for the congested clique
//!
//! Every simulated round ends at a barrier where each node's sends become
//! each node's next inbox and the per-link word counts are charged. This
//! crate makes the fabric carrying that traffic **pluggable**: the
//! [`Transport`] trait covers per-round send/recv, the barrier rendezvous,
//! and per-link word accounting, and two deterministic backends implement
//! it:
//!
//! * [`InMemoryTransport`] — the classical single-process fabric: the
//!   round's [`LinkSlab`] is moved from the sender to the delivery and the
//!   accounting is read off its offset table. The reference semantics, and
//!   the fastest.
//! * [`StreamTransport`] — true multi-process simulation: an orchestrator
//!   and worker processes, each owning a contiguous shard of destinations,
//!   exchanging length-prefixed [`Frame`]s over one byte stream per worker.
//!   Two constructors differ only in how a worker is reached:
//!   [`StreamTransport::unix`] (backend `"socket"`, `cc-clique-node`
//!   children over a unix domain socket) and [`StreamTransport::tcp`]
//!   (backend `"tcp"`, loopback by default, multi-host with an explicit bind
//!   address). A classical round is a *star* round: one [`Frame::Shard`] per
//!   worker out, the same frame echoed back, and a round-commit token — the
//!   round completes only when every worker has committed the epoch with a
//!   dense table of the words it charged. TCP adds a **program-resident**
//!   mode: [`cc_runtime::WireProgram`] shards ship to the workers once,
//!   per-round traffic flows worker→worker over a direct peer mesh — one
//!   [`Frame::Shard`] per peer per round — and the orchestrator's per-round
//!   role shrinks to brokering the barrier and collecting final states: the
//!   star becomes a clique.
//!
//! Setup is one handshake for both constructors: the orchestrator binds a
//! listener and spawns `<worker-binary> <endpoint> <worker>` per worker
//! (`unix://<path>` or `tcp://<host>:<port>`); each worker connects and
//! greets with [`Frame::Hello`] + [`Frame::PeerAddr`] (its peer-listener
//! address; empty on a unix socket), and is answered with its shard
//! ([`Frame::Assign`], which also forwards the trace level) and the routing
//! table ([`Frame::Peers`]). The worker side of all of it is
//! [`worker_main`].
//!
//! ## One round, one buffer
//!
//! A round's unicast traffic is a single flat, destination-major
//! [`LinkSlab`]: link `(src, dst)` is the slice
//! `words[offsets[dst * n + src]..offsets[dst * n + src + 1]]`. The slab,
//! the delivery and the in-memory barrier are `cc_runtime`'s (re-exported
//! here): the engine and every clique primitive speak them, and this crate
//! keeps only the fabrics and the wire. The primitive that generates the
//! traffic builds the slab by a two-pass counting sort
//! ([`LinkSlab::from_runs`]) and hands it over in one call ([`Transport::send_slab`]); the barrier hands
//! a slab back ([`RoundDelivery::unicast`]) together with the round's
//! broadcast slabs (one list per *source*, shared by every recipient) and
//! its canonical [`LinkLoads`]. On the stream backend the slab is also the
//! wire unit: each worker owns a contiguous range of destinations, hence a
//! contiguous range of any slab, which ships as **one** [`Frame::Shard`]
//! (the range's per-link lengths, then its words, encoded straight from the
//! slab's slices). On the star the orchestrator ships each worker its range
//! of the round's slab, the worker echoes it as one frame, and it is
//! appended to the delivered slab in one step. On the program-resident peer
//! mesh each worker gathers its own nodes' outboxes into a slab, keeps its
//! own range and ships every peer the peer's range; the receiver lays its
//! destinations' rows of the delivered slab out link by link, each source's
//! words from the shard of the worker owning that source, and its nodes
//! read their next inboxes as views of those rows. Either way the workers'
//! commit tokens carry their charged words as dense tables in the same link
//! order, and those tables laid end to end *are* the round's [`LinkLoads`]
//! table (destination-major, like the slab), taken over in one pass.
//! Nothing on any path keeps a queue per link.
//!
//! A slab may arrive carrying its own loads ([`LinkSlab::with_loads`]): a
//! cached routed step knows both relay phases' per-link counts before it
//! places a word, and `send_slab` checks them against the offset table. The
//! in-memory barrier ([`RoundDelivery::in_memory`], the engine's default
//! barrier too) charges those attached loads as they are when the round is
//! exactly that one slab with no broadcast; a round merged from several
//! parts, or with a broadcast, is recounted off the merged offset table in
//! one pass ([`LinkSlab::link_loads`]). The stream fabrics always charge
//! what their workers' commit tables report, which is what actually crossed
//! the wire.
//!
//! ## Determinism contract
//!
//! For any send pattern, every backend produces the same deliveries, the
//! same canonical `(src, dst)`-ordered [`LinkLoads`], and therefore the same
//! round counts and pattern fingerprints, bit for bit. Backends differ only
//! in *where* the traffic physically travels: socket buffers or shared
//! memory.
//!
//! Nothing decorates a backend: [`TransportKind::build`] returns it bare,
//! and the per-round trace event and the simulated link conditions are
//! read off each committed [`RoundDelivery`] by whoever drives the barrier
//! (cc-clique's `Network`).
//!
//! The backend is chosen through [`TransportKind`]; like the executor's
//! `CC_EXECUTOR`, the `CC_TRANSPORT` environment variable retargets every
//! default-configured simulation in the process
//! ([`TransportKind::from_env_or`]). `algorithms_are_transport_independent`
//! in the facade's `tests/runtime_determinism.rs` holds the fabric axis
//! in-process.
//!
//! ## Variant ledger
//!
//! A variant stays while a `benchmark/` workload or probe runs on it, or it
//! covers a scenario nothing else does; no entry, no variant.
//!
//! | `CC_TRANSPORT` | built by | earns its place with |
//! |---|---|---|
//! | `inmemory` | [`InMemoryTransport`] | workload `tri-inmem` (and every other in-process workload): the reference semantics |
//! | `socket` | [`StreamTransport::unix`] | workload `tri-socket`, probes `transport.round_us.socket.*` |
//! | `tcp` | [`StreamTransport::tcp`], star | probes `transport.round_us.tcp.*`, `transport.setup_ms.tcp`; the only star that crosses hosts |
//! | `tcp-peer` | [`StreamTransport::tcp`], resident | workload `triprog-tcp-peer`: payloads bypass the orchestrator |
//!
//! [`Frame::Payload`] and [`Transport::send`] (with `Pending`'s append log)
//! serve no fabric any more; both are kept for the
//! `transport.encode_ns_per_word.*` / `transport.round_us.*` probes until a
//! `[benchmark]` PR repoints those at [`Frame::Shard`] and
//! [`Transport::send_slab`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod inmemory;
mod pending;
mod slab;
mod socket;
mod star;
mod tcp;

pub use crate::frame::{
    encode_frame_batch, push_bcast_frame, push_frame, push_frame_bytes, push_shard_frame,
    read_frame, write_frame, Frame, FrameError, MAX_FRAME_BYTES,
};
pub use crate::inmemory::InMemoryTransport;
pub use crate::socket::{worker_main, StreamTransport, DEFAULT_STREAM_WORKERS};
// The round's shared types live in `cc_runtime`, beside the engine that
// speaks them; re-exported here, where the fabrics use them.
pub use cc_runtime::{BcastLanes, LinkSlab, RoundDelivery};

use cc_runtime::{Executor, LinkLoads, ResidentOutcome, Word};
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

/// A synchronous-round message fabric for `n` clique nodes.
///
/// Usage is strictly round-structured: any number of [`Transport::send`] /
/// [`Transport::send_slab`] / [`Transport::broadcast`] calls queue the
/// current round's traffic, then
/// one [`Transport::finish_round`] executes the barrier — rendezvous with
/// every peer, deliver, account — and advances the epoch. All backends are
/// deterministic: identical call sequences yield identical
/// [`RoundDelivery`]s on every backend.
///
/// A transport only carries traffic. Round tracing and simulated link
/// conditions are not layered over it: whoever drives the barrier reads
/// the committed round's epoch and [`LinkLoads`] off the returned delivery
/// (cc-clique's `Network` does, for every closure primitive and engine
/// round).
pub trait Transport: fmt::Debug + Send {
    /// Human-readable backend name (`"inmemory"`, `"socket"`, `"tcp"`).
    fn name(&self) -> &'static str;

    /// Number of simulated nodes.
    fn n(&self) -> usize;

    /// Queues `words` on the `(src, dst)` link for the current round.
    /// Payloads for one link concatenate in send order. Self-addressed
    /// traffic (`src == dst`) is delivered but never charged.
    fn send(&mut self, src: usize, dst: usize, words: &[Word]);

    /// Queues a whole slab of unicast traffic for the current round — the
    /// bulk entry point every primitive uses. A round sent as one slab
    /// reaches the barrier without being copied; mixed with
    /// [`Transport::send`] calls or further slabs, each link's words
    /// concatenate in call order.
    ///
    /// # Panics
    ///
    /// Panics if the slab's layout is inconsistent or sized for a different
    /// clique (see [`LinkSlab::validate`]).
    fn send_slab(&mut self, slab: LinkSlab);

    /// Queues a broadcast slab from `src` for the current round: delivered
    /// to every node (the sender included), charged on every `src → dst`
    /// link with `dst ≠ src`.
    fn broadcast(&mut self, src: usize, slab: Arc<[Word]>);

    /// Executes the round barrier: every peer rendezvous on the current
    /// epoch, queued traffic is delivered, and the round's link loads are
    /// returned in canonical order. Advances the epoch. A round with no
    /// queued traffic is legal and yields empty deliveries and loads.
    fn finish_round(&mut self) -> RoundDelivery;

    /// Rounds completed so far (the current epoch).
    fn epoch(&self) -> u64;

    /// Whether this backend hosts node programs *worker-resident*: program
    /// state ships to the workers once and per-round traffic flows over
    /// direct peer links instead of through the orchestrator. Backends that
    /// return `true` must implement [`Transport::run_resident`].
    fn is_resident(&self) -> bool {
        false
    }

    /// Runs a full program-resident session: ships the encoded `states`
    /// (kind key `kind`, one state per node, node order) to the workers,
    /// drives rounds peer-to-peer until every program halts — invoking
    /// `on_round` with each round's canonical link loads, exactly as the
    /// engine's classical loop would — and returns the final states.
    /// Advances the epoch once per executed round, keeping epoch counts
    /// bit-identical to the star backends. `None` means the backend does
    /// not host programs (the default) and the caller should fall back to
    /// the classical round loop.
    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<Word>>,
        on_round: &mut dyn FnMut(&LinkLoads),
    ) -> Option<ResidentOutcome> {
        let _ = (kind, states, on_round);
        None
    }

    /// Total *payload* bytes (encoded `Shard`/`Payload`/`Bcast` frames) the
    /// orchestrating process shipped at round barriers so far. Control
    /// traffic — handshakes, program shards, commit tokens — is excluded,
    /// so a program-resident session reports `0`: its round payloads never
    /// touch the orchestrator. In-process backends report `0` as there is
    /// no wire at all.
    fn orchestrator_bytes(&self) -> u64 {
        0
    }
}

/// Which [`Transport`] backend a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Single-process shared-memory fabric (the reference semantics and the
    /// default): the round's slab is moved from sender to delivery.
    #[default]
    InMemory,
    /// Multi-process fabric: `cc-clique-node` worker processes over unix
    /// domain sockets, barrier via per-epoch round-commit tokens.
    Socket {
        /// Worker process count; `0` means [`DEFAULT_STREAM_WORKERS`]
        /// (clamped to `n`).
        workers: usize,
    },
    /// Multi-process fabric over TCP: the same orchestrator/worker frame
    /// protocol as [`TransportKind::Socket`], host-portable, with an
    /// optional program-resident mode where rounds flow worker→worker over
    /// a direct peer mesh.
    Tcp {
        /// Worker process count; `0` means [`DEFAULT_STREAM_WORKERS`]
        /// (clamped to `n`).
        workers: usize,
        /// Program-resident mode (`tcp-peer` / `peer` specs): ship
        /// [`cc_runtime::WireProgram`] shards to the workers and exchange
        /// rounds peer-to-peer, the orchestrator brokering only the
        /// barrier.
        resident: bool,
        /// Explicit orchestrator bind address (multi-host runs); `None`
        /// binds an ephemeral loopback port.
        addr: Option<SocketAddr>,
    },
}

impl TransportKind {
    /// Parses a backend spec: `inmemory`/`memory`/`mem`,
    /// `socket`/`unix` (optionally suffixed `:<workers>` as in `socket:8`),
    /// or `tcp`/`tcp-peer`/`peer` with the grammar
    /// `tcp[:<workers>][:<host>:<port>]` — `tcp`, `tcp:4`,
    /// `tcp:4:10.0.0.1:9000`, `tcp:10.0.0.1:9000`. The `tcp-peer`/`peer`
    /// spellings select the program-resident mode with the same suffix
    /// grammar. `None` for unknown names **or** malformed suffixes —
    /// `socket:banana` must not silently mean "default workers".
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let lower = raw.to_ascii_lowercase();
        let (name, rest) = match lower.split_once(':') {
            Some((name, rest)) => (name, Some(rest)),
            None => (lower.as_str(), None),
        };
        match name {
            "inmemory" | "in-memory" | "memory" | "mem" if rest.is_none() => {
                Some(TransportKind::InMemory)
            }
            "socket" | "unix" => Some(TransportKind::Socket {
                workers: match rest {
                    Some(w) => w.parse().ok()?,
                    None => 0,
                },
            }),
            "tcp" | "tcp-star" => Self::parse_tcp(rest, false),
            "tcp-peer" | "peer" => Self::parse_tcp(rest, true),
            _ => None,
        }
    }

    /// The `tcp` suffix grammar: nothing, `<workers>`, `<host>:<port>`, or
    /// `<workers>:<host>:<port>` — a first segment that parses as a number
    /// is a worker count, anything else must be a socket address.
    fn parse_tcp(rest: Option<&str>, resident: bool) -> Option<Self> {
        let (workers, addr) = match rest {
            None => (0, None),
            Some(rest) => match rest.split_once(':') {
                None => (rest.parse::<usize>().ok()?, None),
                Some((first, tail)) => match first.parse::<usize>() {
                    Ok(w) => (w, Some(tail.parse::<SocketAddr>().ok()?)),
                    Err(_) => (0, Some(rest.parse::<SocketAddr>().ok()?)),
                },
            },
        };
        Some(TransportKind::Tcp {
            workers,
            resident,
            addr,
        })
    }

    /// Resolves a `CC_TRANSPORT` spec: `None` (unset) resolves to the
    /// fallback, a parseable value to its kind, and a malformed value to an
    /// error carrying the raw spec so the caller can report the
    /// misconfiguration instead of swallowing it. A thin wrapper over the
    /// shared [`cc_runtime::env_config::resolve`].
    pub fn resolve(spec: Option<&str>, fallback: TransportKind) -> Result<Self, String> {
        cc_runtime::env_config::resolve(spec, fallback, Self::parse)
    }

    /// Reads the backend from the `CC_TRANSPORT` environment variable,
    /// falling back to `fallback` when unset. An unrecognised value is a
    /// misconfiguration, not a preference for the default: it is reported
    /// once per process (the shared [`cc_runtime::env_config`] contract)
    /// before falling back.
    #[must_use]
    pub fn from_env_or(fallback: TransportKind) -> Self {
        cc_runtime::env_config::from_env_or(
            "cc-transport",
            "CC_TRANSPORT",
            "inmemory, socket[:workers], or tcp[-peer][:workers][:host:port]",
            fallback,
            Self::parse,
        )
    }

    /// Builds a transport of this kind for `n` nodes: the bare backend,
    /// with nothing layered over it. No backend runs anything on the
    /// executor — the in-memory barrier moves one slab and the stream
    /// fabric's concurrency is its worker processes — so `_exec` is kept
    /// only because `benchmark/` calls this signature; the next
    /// `[benchmark]` PR drops it.
    #[must_use]
    pub fn build(self, n: usize, _exec: Executor) -> Box<dyn Transport> {
        match self {
            TransportKind::InMemory => Box::new(InMemoryTransport::new(n)),
            TransportKind::Socket { workers } => Box::new(StreamTransport::unix(n, workers)),
            TransportKind::Tcp {
                workers,
                resident,
                addr,
            } => Box::new(StreamTransport::tcp(n, workers, resident, addr)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_known_names() {
        assert_eq!(
            TransportKind::parse("inmemory"),
            Some(TransportKind::InMemory)
        );
        assert_eq!(TransportKind::parse("MEM"), Some(TransportKind::InMemory));
        assert_eq!(
            TransportKind::parse("socket"),
            Some(TransportKind::Socket { workers: 0 })
        );
        assert_eq!(
            TransportKind::parse("unix:8"),
            Some(TransportKind::Socket { workers: 8 })
        );
        assert_eq!(
            TransportKind::parse("socket:0"),
            Some(TransportKind::Socket { workers: 0 }),
            "an explicit 0 means the default worker count"
        );
        assert_eq!(TransportKind::parse("telepathy"), None);
    }

    #[test]
    fn parser_accepts_tcp_specs() {
        let tcp = |workers, resident, addr: Option<&str>| TransportKind::Tcp {
            workers,
            resident,
            addr: addr.map(|a| a.parse().unwrap()),
        };
        assert_eq!(TransportKind::parse("tcp"), Some(tcp(0, false, None)));
        assert_eq!(TransportKind::parse("tcp:4"), Some(tcp(4, false, None)));
        assert_eq!(
            TransportKind::parse("tcp:4:10.0.0.1:9000"),
            Some(tcp(4, false, Some("10.0.0.1:9000")))
        );
        assert_eq!(
            TransportKind::parse("tcp:127.0.0.1:9000"),
            Some(tcp(0, false, Some("127.0.0.1:9000")))
        );
        assert_eq!(TransportKind::parse("tcp-peer"), Some(tcp(0, true, None)));
        assert_eq!(TransportKind::parse("peer:3"), Some(tcp(3, true, None)));
        assert_eq!(
            TransportKind::parse("tcp-peer:2:127.0.0.1:7000"),
            Some(tcp(2, true, Some("127.0.0.1:7000")))
        );
        // Malformed suffixes reject the whole spec, same as socket.
        assert_eq!(TransportKind::parse("tcp:banana"), None);
        assert_eq!(TransportKind::parse("tcp:"), None);
        assert_eq!(TransportKind::parse("tcp:4:nothost"), None);
        assert_eq!(TransportKind::parse("tcp:10.0.0.1"), None, "port required");
    }

    #[test]
    fn parser_rejects_malformed_worker_suffixes() {
        // `socket:banana` must not silently mean "default workers" — the
        // whole spec is rejected so `from_env_or` falls back (and warns).
        assert_eq!(TransportKind::parse("socket:banana"), None);
        assert_eq!(TransportKind::parse("socket:"), None, "empty suffix");
        assert_eq!(TransportKind::parse("socket:-1"), None);
        assert_eq!(TransportKind::parse("socket:4x"), None);
        assert_eq!(
            TransportKind::parse("inmemory:2"),
            None,
            "worker suffixes are for the process fabrics"
        );
    }

    #[test]
    fn resolution_reports_malformed_specs() {
        // Unset and well-formed specs resolve silently; malformed specs
        // surface as errors (from_env_or prints the warning once), never
        // resolve silently to anything.
        let fb = TransportKind::InMemory;
        assert_eq!(TransportKind::resolve(None, fb), Ok(fb));
        assert_eq!(
            TransportKind::resolve(Some("unix:3"), fb),
            Ok(TransportKind::Socket { workers: 3 })
        );
        // The deleted thread-queue fabric's spellings are malformed now,
        // not a silent preference for something else.
        for gone in ["sockets", "channel", "mpsc"] {
            assert_eq!(
                TransportKind::resolve(Some(gone), fb),
                Err(gone.to_string())
            );
        }
        assert_eq!(TransportKind::resolve(Some(""), fb), Err(String::new()));
    }
}
