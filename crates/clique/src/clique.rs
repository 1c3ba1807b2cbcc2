//! The [`Clique`] engine: primitives, routing, and accounting.

use crate::inbox::Inboxes;
use crate::network::Network;
use crate::outbox::Outbox;
use crate::schedule::{pack_head, splitmix, RouteSchedule};
use crate::stats::Stats;
use crate::word::Word;
use cc_netsim::{NetsimConfig, NetsimTransport};
use cc_runtime::{Engine, Executor, ExecutorKind, LinkLoads, NodeProgram, WireProgram};
use cc_transport::{LinkSlab, TransportFabric, TransportKind};
use std::sync::Arc;

/// Communication regime of the simulated clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The standard congested clique: each node may send a *different* word
    /// to each neighbour in a round.
    #[default]
    Unicast,
    /// The *broadcast* congested clique: every message a node sends in a
    /// round must be identical across all neighbours. Point-to-point
    /// primitives ([`Clique::exchange`], [`Clique::route`]) are unavailable.
    /// Used to reproduce the Ω̃(n) separation of Corollary 24.
    Broadcast,
}

/// Relay-selection policy of the balanced router (see [`Clique::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RelayPolicy {
    /// Power-of-two-choices: hash two candidate relays per word, pick the
    /// less loaded. Keeps per-link loads within a small constant of the
    /// ideal `⌈L/n⌉` (the default).
    #[default]
    TwoChoice,
    /// Single hashed relay per word (plain Valiant routing). Simpler, but
    /// suffers `O(log n / log log n)` balls-into-bins slack; kept for the
    /// router ablation experiment.
    SingleHash,
}

/// Configuration for a [`Clique`].
#[derive(Debug, Clone)]
pub struct CliqueConfig {
    /// Communication regime (see [`Mode`]).
    pub mode: Mode,
    /// Seed for the deterministic relay-balancing hash used by
    /// [`Clique::route`] and [`Clique::gossip`].
    pub route_seed: u64,
    /// When `true`, every communication step records a fingerprint of its
    /// per-link loads into [`Stats::pattern_fingerprints`]; used by the
    /// obliviousness tests.
    pub record_patterns: bool,
    /// Relay selection policy for balanced routing.
    pub relay_policy: RelayPolicy,
    /// Execution backend for node-local computation and message delivery
    /// (see [`ExecutorKind`]). [`ExecutorKind::Parallel`] runs the
    /// simulation on a persistent worker pool (built once per clique,
    /// parked between steps, joined on drop) with results, round counts,
    /// and pattern fingerprints bit-identical to
    /// [`ExecutorKind::Sequential`]. The default consults the
    /// `CC_EXECUTOR` environment variable, which moves every
    /// default-configured simulation in the process onto a parallel
    /// backend.
    pub executor: ExecutorKind,
    /// Overrides the executor's small-`n` sequential cutover (piece counts
    /// below the threshold run inline; see
    /// [`cc_runtime::Executor::with_cutover`]). `None` uses the runtime
    /// default (self-tuned on parallel backends, `DEFAULT_SEQ_CUTOVER` on
    /// the sequential one).
    pub exec_cutover: Option<usize>,
    /// Message fabric carrying every communication step (see
    /// [`TransportKind`]): the in-memory slab move (the default) or true
    /// multi-process unix-socket / TCP workers. Deliveries, rounds, words, and
    /// pattern fingerprints are bit-identical across backends. The default
    /// consults the `CC_TRANSPORT` environment variable — mirroring
    /// `CC_EXECUTOR` — which moves every default-configured simulation in
    /// the process onto a given fabric; an unrecognised value is reported
    /// once and falls back to in-memory.
    pub transport: TransportKind,
    /// Simulated network conditions layered over the transport (see
    /// [`NetsimConfig`]): seeded per-link latency/jitter, stragglers,
    /// message loss with retransmission, and node crash/restart fault
    /// plans. Results, rounds, words, and pattern fingerprints are
    /// bit-identical to an unconditioned fabric — conditioning only adds
    /// the simulated-time/retransmit/fault accounting surfaced through
    /// [`Stats::sim_time_ns`] and friends. The default consults the
    /// `CC_NETSIM` environment variable (`off` / `lan` / `wan` / `lossy` /
    /// `flaky-node`, optionally `:<seed>`), mirroring `CC_TRANSPORT`.
    pub netsim: NetsimConfig,
}

impl Default for CliqueConfig {
    fn default() -> Self {
        Self {
            mode: Mode::Unicast,
            route_seed: 0x5eed_c11e,
            record_patterns: false,
            relay_policy: RelayPolicy::TwoChoice,
            executor: ExecutorKind::from_env_or(ExecutorKind::Sequential),
            exec_cutover: None,
            transport: TransportKind::from_env_or(TransportKind::InMemory),
            netsim: NetsimConfig::from_env_or(NetsimConfig::default()),
        }
    }
}

impl CliqueConfig {
    /// The default configuration with a pooled parallel executor sized to
    /// the machine.
    #[must_use]
    pub fn parallel() -> Self {
        Self {
            executor: ExecutorKind::parallel(),
            ..Self::default()
        }
    }

    /// Builds the executor this configuration describes. Public so hosts
    /// that create many cliques (e.g. a `cc-service` warm pool) can build
    /// the executor **once** and share the handle across instances via
    /// [`Clique::with_config_and_executor`].
    #[must_use]
    pub fn build_executor(&self) -> Executor {
        match self.exec_cutover {
            Some(cutover) => Executor::with_cutover(self.executor, cutover),
            None => Executor::new(self.executor),
        }
    }
}

/// A simulated congested clique of `n` nodes.
///
/// All communication primitives take a *message generator* closure that is
/// invoked once per node id; by convention the closure may consult only that
/// node's local state and previously received messages, mirroring the
/// locality discipline of the real model.
///
/// # Examples
///
/// ```rust
/// use cc_clique::Clique;
///
/// let mut clique = Clique::new(4);
/// // Each node v sends v*10 + u to node u, over direct links.
/// let inboxes = clique.exchange(|v| {
///     (0..4).filter(|&u| u != v).map(|u| (u, vec![(v * 10 + u) as u64])).collect()
/// });
/// assert_eq!(inboxes.received(2, 3), &[32]);
/// assert_eq!(clique.rounds(), 1);
/// ```
#[derive(Debug)]
pub struct Clique {
    n: usize,
    net: Network,
    stats: Stats,
    cfg: CliqueConfig,
    exec: Executor,
    /// Simulated network time already drained from the transport into
    /// `stats` — the transport's counter is cumulative for its lifetime,
    /// while `stats` is per-run (it survives `reset`).
    sim_seen: u64,
}

impl Clique {
    /// Creates a clique of `n` nodes with the default configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_config(n, CliqueConfig::default())
    }

    /// Creates a clique with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_config(n: usize, cfg: CliqueConfig) -> Self {
        let exec = cfg.build_executor();
        Self::with_config_and_executor(n, cfg, exec)
    }

    /// Creates a clique with an explicit configuration **and** a pre-built
    /// executor handle, instead of building one from the config. Executor
    /// handles are cheap clones sharing one persistent worker pool, so this
    /// is the seam that lets many cliques — e.g. every instance of a
    /// `cc-service` warm pool — share a single pool of OS threads rather
    /// than spawning one per instance. Results are identical either way;
    /// only thread ownership changes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_config_and_executor(n: usize, cfg: CliqueConfig, exec: Executor) -> Self {
        assert!(
            n >= 2,
            "a congested clique needs at least 2 nodes (got {n})"
        );
        // The condition layer wraps the *outside* of the built transport
        // (including any tracing decorator), so every round barrier —
        // closure primitives and engine-driven runs alike — is conditioned.
        // `wrap` is the identity for `NetsimProfile::Off`.
        let transport = NetsimTransport::wrap(cfg.transport.build(n, exec.clone()), cfg.netsim);
        Self {
            n,
            net: Network::new(n, transport),
            stats: Stats::new(cfg.record_patterns),
            exec,
            cfg,
            sim_seen: 0,
        }
    }

    /// Resets the accounting — rounds, words, phases, pattern fingerprints
    /// — to a fresh-clique state while keeping the warm infrastructure: the
    /// executor (and its worker pool), the transport (and its node threads
    /// or worker processes), and the configuration all survive. This is the
    /// instance-reuse seam warm pools are built on: because every
    /// primitive's relay draws depend only on the configuration and the
    /// messages of the current call — never on history — a reset clique
    /// produces answers, rounds, words, and fingerprints bit-identical to
    /// a newly built one. (Transport barrier epochs keep counting across
    /// resets; they are a lifetime diagnostic, not per-run accounting.)
    pub fn reset(&mut self) {
        // Mark the reuse boundary in the trace: the discarded totals and
        // the fabric epoch the next run starts from, so a timeline over a
        // warm-pool session shows where one logical run ends.
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Summary, || {
            cc_telemetry::Event::Reset {
                rounds: self.stats.rounds(),
                words: self.stats.words(),
                epoch: self.net.epochs(),
            }
        });
        self.stats = Stats::new(self.cfg.record_patterns);
        // Simulated network time, like transport epochs, keeps counting on
        // the fabric across resets; re-anchor so the fresh stats only see
        // time accrued from here on.
        self.sim_seen = self.net.sim_time_ns();
    }

    /// Creates a clique of `n` nodes executing on a parallel backend sized
    /// to the machine. Results are bit-identical to [`Clique::new`]; only
    /// wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn parallel(n: usize) -> Self {
        Self::with_config(n, CliqueConfig::parallel())
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Synchronous rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.stats.rounds()
    }

    /// Execution statistics (rounds, words, per-phase breakdown).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Configuration this clique was created with.
    #[must_use]
    pub fn config(&self) -> &CliqueConfig {
        &self.cfg
    }

    /// Round barriers the transport has executed (one per communication
    /// phase: an exchange flush, a routing phase, a broadcast, an engine
    /// round). Identical across backends for identical call sequences —
    /// the determinism tests pin it alongside rounds and fingerprints.
    #[must_use]
    pub fn transport_epochs(&self) -> u64 {
        self.net.epochs()
    }

    /// Name of the transport backend carrying this clique's traffic
    /// (`"inmemory"`, `"socket"` for the unix-socket star, or `"tcp"` for
    /// both TCP modes).
    #[must_use]
    pub fn transport_name(&self) -> &'static str {
        self.net.transport_name()
    }

    /// Encoded payload bytes the orchestrating process itself has shipped
    /// onto the fabric so far. Star-shaped backends relay every round
    /// through the orchestrator, so this grows with the traffic; in a
    /// program-resident session (see [`Clique::run_wire_programs`] on a
    /// `tcp-peer` fabric) round payloads travel worker-to-worker and this
    /// stays untouched. In-memory delivery reports `0`.
    #[must_use]
    pub fn orchestrator_bytes(&self) -> u64 {
        self.net.orchestrator_bytes()
    }

    /// Simulated network time accrued by this run, in nanoseconds: the
    /// maximum over delivering links of base latency + per-word serialised
    /// time + jitter (+ retransmission backoff, straggler inflation, and
    /// crash outages), summed over round barriers. `0` unless a `cc-netsim`
    /// profile is active (see [`CliqueConfig::netsim`]); for a fixed
    /// profile, seed, and workload the value is bit-reproducible. Reset by
    /// [`Clique::reset`] along with rounds and words.
    #[must_use]
    pub fn sim_time_ns(&self) -> u64 {
        self.stats.sim_time_ns()
    }

    /// Simulated message retransmissions performed by the condition layer
    /// over the transport's lifetime (like [`Clique::transport_epochs`],
    /// this is a lifetime diagnostic that keeps counting across resets).
    /// `0` unless a lossy `cc-netsim` profile is active.
    #[must_use]
    pub fn net_retransmits(&self) -> u64 {
        self.net.net_retransmits()
    }

    /// Simulated node crashes injected by the condition layer over the
    /// transport's lifetime. `0` unless a fault-plan profile
    /// (`flaky-node`) is active.
    #[must_use]
    pub fn net_faults(&self) -> u64 {
        self.net.net_faults()
    }

    /// The execution backend handle. Algorithms use this to fan node-local
    /// computation out over the configured backend
    /// (`clique.executor().map(n, |v| …)`), keeping the parallelism decision
    /// in one place — the [`CliqueConfig`]. The handle is a cheap clone:
    /// pooled executors share one persistent worker pool across all
    /// clones, which lives until the clique (and every handle) drops.
    #[must_use]
    pub fn executor(&self) -> Executor {
        self.exec.clone()
    }

    /// Runs `f` inside a named accounting phase; rounds, words, and
    /// wall-clock accrued while `f` runs are attributed to `name` (and to
    /// enclosing phases). At `CC_TRACE=summary` and above the phase also
    /// emits start/end events into the telemetry capture.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let tel = cc_telemetry::global();
        tel.emit(cc_telemetry::TraceLevel::Summary, || {
            cc_telemetry::Event::PhaseStart {
                name: name.to_string(),
            }
        });
        let before = (self.stats.rounds(), self.stats.words());
        self.stats.push_phase(name);
        let r = f(self);
        let (popped, wall_ns) = self.stats.pop_phase();
        tel.emit(cc_telemetry::TraceLevel::Summary, || {
            cc_telemetry::Event::PhaseEnd {
                name: popped,
                rounds: self.stats.rounds() - before.0,
                words: self.stats.words() - before.1,
                wall_ns,
            }
        });
        r
    }

    fn charge_loads(&mut self, loads: &LinkLoads) {
        self.stats.record_fingerprint(loads);
        self.stats.charge(loads.rounds(), loads.words());
        self.sync_sim_time();
    }

    /// Drains simulated network time newly accrued on the transport into
    /// the per-run stats (attributed to every active phase). A no-op on an
    /// unconditioned fabric, where the transport's counter stays at zero.
    fn sync_sim_time(&mut self) {
        let total = self.net.sim_time_ns();
        let delta = total - self.sim_seen;
        self.sim_seen = total;
        self.stats.charge_sim_time(delta);
    }

    fn require_unicast(&self, primitive: &str) {
        assert!(
            self.cfg.mode == Mode::Unicast,
            "{primitive} is unavailable in the broadcast congested clique (Mode::Broadcast)"
        );
    }

    /// Direct link-level exchange: node `v`'s generator returns a list of
    /// `(destination, words)` messages, each of which travels on the
    /// `(v, destination)` link. The step costs as many rounds as the longest
    /// per-link queue.
    ///
    /// Use this for patterns that are already balanced per link; use
    /// [`Clique::route`] when per-link loads would exceed per-node loads
    /// divided by `n`.
    pub fn exchange<F>(&mut self, mut messages: F) -> Inboxes
    where
        F: FnMut(usize) -> Vec<(usize, Vec<Word>)>,
    {
        self.require_unicast("exchange");
        // The whole step is one slab, counting-sorted by link; on the
        // in-memory fabric the barrier hands the same buffer back as the
        // inboxes.
        let msgs: Vec<Vec<(usize, Vec<Word>)>> = (0..self.n).map(&mut messages).collect();
        let runs = msgs.iter().enumerate().flat_map(|(v, out)| {
            out.iter()
                .map(move |(dst, words)| (v, *dst, words.as_slice()))
        });
        self.exchange_slab(LinkSlab::from_runs(self.n, runs))
    }

    /// [`Clique::exchange`] with the per-node generator evaluated on the
    /// configured executor, writing each node's messages into one flat
    /// [`Outbox`] (a generator that already holds `Vec<(usize, Vec<Word>)>`
    /// converts with `.into()`). Requires a `Fn + Sync` generator (each
    /// node's messages may be computed on any worker thread); semantics,
    /// costs, and results are identical to the sequential primitive.
    pub fn exchange_par<F>(&mut self, messages: F) -> Inboxes
    where
        F: Fn(usize) -> Outbox + Sync,
    {
        // Fail fast before any generator fan-out, like `exchange` does.
        self.require_unicast("exchange");
        let outboxes = self.exec.map(self.n, &messages);
        let runs = outboxes
            .iter()
            .enumerate()
            .flat_map(|(v, out)| out.messages().map(move |(dst, words)| (v, dst, words)));
        self.exchange_slab(LinkSlab::from_runs(self.n, runs))
    }

    /// Ships one direct exchange step and charges the fabric's accounting.
    fn exchange_slab(&mut self, slab: LinkSlab) -> Inboxes {
        self.net.send_slab(slab);
        let (inboxes, loads) = self.net.flush();
        self.charge_loads(&loads);
        inboxes
    }

    /// Balanced two-phase routing (Lenzen-style): every word is sent to a
    /// pseudo-random relay and then forwarded to its destination, so a step
    /// in which each node sends and receives at most `L` words costs
    /// `O(⌈L/n⌉)` rounds — `O(1)` rounds for `L ≤ n`, as guaranteed by the
    /// routing theorem the paper invokes.
    ///
    /// This entry point models *oblivious* routing (the pattern is known to
    /// all nodes in advance, so no destination headers are transmitted). For
    /// data-dependent patterns use [`Clique::route_dynamic`], which charges
    /// one extra header word per message.
    ///
    /// # Relay schedules are drawn once per shape
    ///
    /// The relay of every word depends only on `n`, the configured
    /// `route_seed` and `relay_policy`, and the step's *shape*: the ordered
    /// sequence of `(src, dst, len)` over its messages, empty ones included
    /// — never on the words. An oblivious algorithm routes the same few
    /// shapes over and over, so the draw is compiled — where each word
    /// lands in either phase's slab and where each message lands in the
    /// delivery — and kept in a process-wide cache keyed by exactly those
    /// four things and shared by every clique in the process. A lookup
    /// compares the whole shape, message by message (a hash only
    /// pre-filters); a hit writes every word straight to its slot, a miss
    /// draws and compiles first — results, rounds, words and fingerprints
    /// are identical either way. A schedule also holds both phases' relay
    /// loads, computed once when it is drawn: each phase's slab carries
    /// them to the fabric, so an in-memory barrier charges a cached step
    /// without recounting its `n²` links. The cache is least-recently-used
    /// and bounded by a fixed 8 MiB of tables; a step whose compiled tables
    /// would exceed that is drawn, used once and dropped, without tables.
    /// [`Clique::route_dynamic`] steps are drawn on every call and never
    /// enter the cache: their shapes follow the data.
    pub fn route<F>(&mut self, mut messages: F) -> Inboxes
    where
        F: FnMut(usize) -> Vec<(usize, Vec<Word>)>,
    {
        self.require_unicast("route");
        let outboxes = (0..self.n).map(|v| messages(v).into()).collect();
        self.route_outboxes(outboxes, false)
    }

    /// Like [`Clique::route`], but for data-dependent (non-oblivious)
    /// patterns: each message is charged one extra word carrying its
    /// destination, which the relay needs in order to forward it. The relay
    /// schedule of a dynamic step is drawn per call and never cached.
    pub fn route_dynamic<F>(&mut self, mut messages: F) -> Inboxes
    where
        F: FnMut(usize) -> Vec<(usize, Vec<Word>)>,
    {
        self.require_unicast("route");
        let outboxes = (0..self.n).map(|v| messages(v).into()).collect();
        self.route_outboxes(outboxes, true)
    }

    /// [`Clique::route`] with the per-node generator evaluated on the
    /// configured executor, writing each node's messages into one flat
    /// [`Outbox`] (a generator that already holds `Vec<(usize, Vec<Word>)>`
    /// converts with `.into()`). Requires a `Fn + Sync` generator; relay
    /// assignment, schedule caching, round costs, and delivered inboxes are
    /// identical to the sequential primitive (outboxes are taken in node
    /// order).
    pub fn route_par<F>(&mut self, messages: F) -> Inboxes
    where
        F: Fn(usize) -> Outbox + Sync,
    {
        // Fail fast before any generator fan-out, like `route` does.
        self.require_unicast("route");
        let outboxes = self.exec.map(self.n, &messages);
        self.route_outboxes(outboxes, false)
    }

    /// [`Clique::route_dynamic`] with the per-node generator evaluated on
    /// the configured executor (data-dependent patterns: one header word is
    /// charged per message, exactly like the sequential primitive).
    pub fn route_dynamic_par<F>(&mut self, messages: F) -> Inboxes
    where
        F: Fn(usize) -> Outbox + Sync,
    {
        // Fail fast before any generator fan-out, like `route_dynamic` does.
        self.require_unicast("route");
        let outboxes = self.exec.map(self.n, &messages);
        self.route_outboxes(outboxes, true)
    }

    /// The one router behind every `route*` entry point: fetches (oblivious
    /// steps) or draws (dynamic ones) the step's [`RouteSchedule`] and ships
    /// both phases by it.
    fn route_outboxes(&mut self, outboxes: Vec<Outbox>, dynamic: bool) -> Inboxes {
        let n = self.n;
        for (dst, _) in outboxes.iter().flat_map(Outbox::messages) {
            assert!(dst < n, "route destination {dst} out of range (n={n})");
        }
        // (src, dst, len) in collection order: node by node, each node's
        // messages as it emitted them.
        let shape = outboxes.iter().enumerate().flat_map(|(src, out)| {
            out.messages()
                .map(move |(dst, words)| pack_head(src, dst, words.len()))
        });
        let (seed, policy) = (self.cfg.route_seed, self.cfg.relay_policy);
        let schedule = if dynamic {
            Arc::new(RouteSchedule::build(n, seed, policy, true, shape.collect()))
        } else {
            RouteSchedule::cached(n, seed, policy, shape)
        };

        // Both phases physically travel through the transport: every word
        // to its relay, the round barrier, then the relays' forwards and the
        // barrier again. The schedule sized every link and places every
        // word; each phase is charged from the fabric's accounting of the
        // slab it is handed, and what the relays received is dropped with
        // the barrier's delivery.
        for phase in 0..2 {
            self.net.send_slab(schedule.slab(phase, &outboxes));
            let (_, loads) = self.net.flush();
            self.charge_loads(&loads);
        }

        // Deliver whole messages in collection order: per-link word streams
        // are interleaved across relays on the wire, so reassembly per
        // (dst, src) pair is modelled (the pattern is known; headers were
        // charged when it is not).
        Inboxes::from_slab(schedule.delivery(&outboxes))
    }

    /// Runs one [`NodeProgram`] per node on the runtime engine, charging the
    /// executed link-level rounds and words to this clique's accounting (and
    /// pattern fingerprints, when recording is enabled). Returns the final
    /// program states in node order.
    ///
    /// This is the opt-in alternative to the closure primitives: algorithms
    /// expressed as per-node state machines are driven round-by-round by
    /// [`cc_runtime::Engine`] on the configured executor, with results
    /// bit-identical across backends.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != self.n()`, or in the broadcast clique
    /// (the engine's unicast sends would violate [`Mode::Broadcast`]).
    pub fn run_programs<P: NodeProgram>(&mut self, programs: Vec<P>) -> Vec<P> {
        self.require_unicast("run_programs");
        assert_eq!(programs.len(), self.n, "need exactly one program per node");
        let engine = Engine::with_executor(self.exec.clone());
        let stats = &mut self.stats;
        // Every engine round barrier is a transport rendezvous: outboxes
        // ship onto the configured fabric, which delivers them and accounts
        // the traffic. On the in-memory backend this is behaviourally
        // identical to the engine's built-in delivery.
        let mut fabric = TransportFabric::new(self.net.transport_mut());
        let report = engine.run_traced_on(&mut fabric, programs, |loads| {
            stats.record_fingerprint(loads);
        });
        stats.charge(report.rounds, report.words);
        self.sync_sim_time();
        report.programs
    }

    /// [`Clique::run_programs`] for [`WireProgram`]s: when the configured
    /// fabric hosts program-resident sessions (a `tcp-peer` transport), the
    /// encoded program states are shipped to its workers once, rounds
    /// proceed worker-to-worker with the orchestrator brokering only the
    /// barrier, and the final states are decoded back. On every other
    /// fabric this is exactly [`Clique::run_programs`]. Results, rounds,
    /// words, and pattern fingerprints are bit-identical either way — the
    /// determinism tests pin all four across both modes.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != self.n()`, or in the broadcast clique.
    pub fn run_wire_programs<P: WireProgram>(&mut self, programs: Vec<P>) -> Vec<P> {
        self.require_unicast("run_programs");
        assert_eq!(programs.len(), self.n, "need exactly one program per node");
        let engine = Engine::with_executor(self.exec.clone());
        let stats = &mut self.stats;
        let mut fabric = TransportFabric::new(self.net.transport_mut());
        let report = engine.run_wire_traced_on(&mut fabric, programs, |loads| {
            stats.record_fingerprint(loads);
        });
        stats.charge(report.rounds, report.words);
        self.sync_sim_time();
        report.programs
    }

    /// One-to-all broadcast: every node sends the *same* word to all others.
    /// Costs exactly one round. Returns the vector of broadcast words
    /// (identical knowledge at every node).
    pub fn broadcast<F>(&mut self, mut word_of: F) -> Vec<Word>
    where
        F: FnMut(usize) -> Word,
    {
        let n = self.n;
        let words: Vec<Word> = (0..n).map(&mut word_of).collect();
        for (v, &w) in words.iter().enumerate() {
            self.net.enqueue_broadcast(v, vec![w].into());
        }
        let round = self.net.flush_full();
        self.charge_loads(&round.loads);
        // The returned knowledge is what the fabric delivered (every
        // node's view is the same shared lanes, by the broadcast contract).
        let delivered: Vec<Word> = (0..n).map(|src| round.broadcast[src][0][0]).collect();
        debug_assert_eq!(delivered, words);
        delivered
    }

    /// Sequence broadcast: node `v` sends the same `kᵥ`-word sequence to all
    /// others; the step costs `max kᵥ` rounds. Returns per-source sequences
    /// (identical knowledge at every node).
    pub fn broadcast_vec<F>(&mut self, mut words_of: F) -> Vec<Vec<Word>>
    where
        F: FnMut(usize) -> Vec<Word>,
    {
        let n = self.n;
        let seqs: Vec<Vec<Word>> = (0..n).map(&mut words_of).collect();
        for (v, seq) in seqs.iter().enumerate() {
            if !seq.is_empty() {
                self.net.enqueue_broadcast(v, Arc::from(seq.as_slice()));
            }
        }
        let round = self.net.flush_full();
        self.charge_loads(&round.loads);
        let delivered: Vec<Vec<Word>> = (0..n)
            .map(|src| {
                round.broadcast[src]
                    .iter()
                    .flat_map(|slab| slab.iter().copied())
                    .collect()
            })
            .collect();
        debug_assert_eq!(delivered, seqs);
        delivered
    }

    /// "Learn everything" (the gather pattern of Dolev et al.): every node
    /// contributes a word list, and every node ends up knowing the union.
    /// Words are first spread evenly over relay nodes and then broadcast, so
    /// the cost is `O(⌈T/n⌉)` rounds for `T` total words.
    ///
    /// The returned vector is the concatenation of all contributions in
    /// `(source, index)` order — identical at every node. Contributions must
    /// be self-describing (e.g. packed edges): source attribution is not
    /// transmitted.
    pub fn gossip<F>(&mut self, mut words_of: F) -> Vec<Word>
    where
        F: FnMut(usize) -> Vec<Word>,
    {
        let contributions: Vec<Vec<Word>> = (0..self.n).map(&mut words_of).collect();
        self.gossip_inner(contributions)
    }

    /// [`Clique::gossip`] with the per-node contribution generator
    /// evaluated on the configured executor. Requires a `Fn + Sync`
    /// generator; relay assignment, round costs, and the returned union are
    /// identical to the sequential primitive.
    pub fn gossip_par<F>(&mut self, words_of: F) -> Vec<Word>
    where
        F: Fn(usize) -> Vec<Word> + Sync,
    {
        let contributions = self.exec.map(self.n, &words_of);
        self.gossip_inner(contributions)
    }

    fn gossip_inner(&mut self, contributions: Vec<Vec<Word>>) -> Vec<Word> {
        let n = self.n;
        if self.cfg.mode == Mode::Broadcast {
            // In the broadcast clique each node can only broadcast its own
            // words: cost max kᵥ rounds.
            let seqs = self.broadcast_vec(|v| contributions[v].clone());
            return seqs.into_iter().flatten().collect();
        }

        // Phase A: spread words over relays (balanced). Each contributed
        // word physically travels to its relay through the transport, and
        // the phase is charged from the fabric's accounting.
        let mut relay_load = vec![0usize; n];
        let mut assigned: Vec<Vec<Word>> = vec![Vec::new(); n];
        let mut relays: Vec<usize> = Vec::new();
        for (src, words) in contributions.iter().enumerate() {
            for (j, w) in words.iter().enumerate() {
                let relay =
                    splitmix(self.cfg.route_seed ^ ((src as u64) << 32) ^ j as u64) as usize % n;
                relay_load[relay] += 1;
                assigned[relay].push(*w);
                relays.push(relay);
            }
        }
        let spread = contributions
            .iter()
            .enumerate()
            .flat_map(|(src, words)| words.iter().map(move |w| (src, w)))
            .zip(&relays)
            .map(|((src, w), &relay)| (src, relay, std::slice::from_ref(w)));
        self.net.send_slab(LinkSlab::from_runs(n, spread));
        let (_, phase_a) = self.net.flush();
        self.charge_loads(&phase_a);

        // Phase B: each relay broadcasts its assigned words, one per round.
        let max_assigned = relay_load.iter().copied().max().unwrap_or(0) as u64;
        let total: u64 = relay_load.iter().map(|&x| x as u64).sum();
        for (r, slab) in assigned.into_iter().enumerate() {
            if !slab.is_empty() {
                self.net.enqueue_broadcast(r, slab.into());
            }
        }
        let round = self.net.flush_full();
        debug_assert_eq!(round.loads.rounds(), max_assigned);
        debug_assert_eq!(round.loads.words(), total * (n as u64 - 1));
        self.charge_loads(&round.loads);

        contributions.into_iter().flatten().collect()
    }

    /// Global sum: every node contributes an `i64`; all nodes learn the total
    /// in one round.
    pub fn sum_all<F>(&mut self, mut value_of: F) -> i64
    where
        F: FnMut(usize) -> i64,
    {
        let words = self.broadcast(|v| value_of(v) as u64);
        words.into_iter().map(|w| w as i64).sum()
    }

    /// Global disjunction: all nodes learn whether any node contributed
    /// `true`, in one round.
    pub fn or_all<F>(&mut self, mut flag_of: F) -> bool
    where
        F: FnMut(usize) -> bool,
    {
        let words = self.broadcast(|v| u64::from(flag_of(v)));
        words.into_iter().any(|w| w != 0)
    }

    /// Global maximum over per-node `i64` contributions, in one round.
    pub fn max_all<F>(&mut self, mut value_of: F) -> i64
    where
        F: FnMut(usize) -> i64,
    {
        let words = self.broadcast(|v| value_of(v) as u64);
        words.into_iter().map(|w| w as i64).max().expect("n >= 2")
    }

    /// Global minimum over per-node `i64` contributions, in one round.
    pub fn min_all<F>(&mut self, mut value_of: F) -> i64
    where
        F: FnMut(usize) -> i64,
    {
        let words = self.broadcast(|v| value_of(v) as u64);
        words.into_iter().map(|w| w as i64).min().expect("n >= 2")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_costs_one_round() {
        let mut c = Clique::new(5);
        let words = c.broadcast(|v| (v * v) as u64);
        assert_eq!(words, vec![0, 1, 4, 9, 16]);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn exchange_rounds_equal_max_link_queue() {
        let mut c = Clique::new(4);
        let ib = c.exchange(|v| {
            if v == 0 {
                vec![(1, vec![1, 2, 3, 4, 5])] // 5 words on one link
            } else {
                vec![]
            }
        });
        assert_eq!(c.rounds(), 5);
        assert_eq!(ib.received(1, 0).len(), 5);
    }

    #[test]
    fn route_balances_hot_links() {
        // Node 0 sends 100 words to node 1. Direct exchange would need 100
        // rounds; balanced routing needs about 2 * ceil(100/16) plus hash
        // imbalance.
        let n = 16;
        let mut c = Clique::new(n);
        let ib = c.route(|v| {
            if v == 0 {
                vec![(1, (0..100).collect())]
            } else {
                vec![]
            }
        });
        assert_eq!(ib.received(1, 0).len(), 100);
        assert!(
            c.rounds() < 40,
            "routed rounds {} should beat direct 100",
            c.rounds()
        );
    }

    #[test]
    fn route_dynamic_charges_headers() {
        let n = 8;
        let mut a = Clique::new(n);
        a.route(|v| {
            if v == 0 {
                vec![(1, (0..64).collect())]
            } else {
                vec![]
            }
        });
        let mut b = Clique::new(n);
        b.route_dynamic(|v| {
            if v == 0 {
                vec![(1, (0..64).collect())]
            } else {
                vec![]
            }
        });
        assert!(b.rounds() > a.rounds(), "headers must cost extra rounds");
        assert!(b.stats().words() >= 2 * a.stats().words() - 1);
    }

    #[test]
    fn route_balanced_instance_is_constant_rounds() {
        // Every node sends one word to every other node: per-node load n-1,
        // which Lenzen routes in O(1) rounds.
        for n in [8, 16, 32, 64] {
            let mut c = Clique::new(n);
            c.route(|v| {
                (0..n)
                    .filter(|&u| u != v)
                    .map(|u| (u, vec![v as u64]))
                    .collect()
            });
            assert!(c.rounds() <= 8, "n={n}: rounds {} not O(1)", c.rounds());
        }
    }

    #[test]
    fn gossip_delivers_union_with_linear_speedup() {
        let n = 16;
        let k = 8; // words per node
        let mut c = Clique::new(n);
        let all = c.gossip(|v| (0..k).map(|j| (v * k + j) as u64).collect());
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..(n * k) as u64).collect::<Vec<_>>());
        // Naive broadcast_vec would need k = 8 rounds minimum and total/(n-1)
        // is the floor; allow a small constant over the ideal.
        let ideal = (n * k) as u64 / (n as u64 - 1);
        assert!(
            c.rounds() <= 3 * ideal + 8,
            "rounds {} vs ideal {}",
            c.rounds(),
            ideal
        );
    }

    #[test]
    fn reducers_agree_with_local_fold() {
        let mut c = Clique::new(6);
        assert_eq!(c.sum_all(|v| v as i64), 15);
        assert!(c.or_all(|v| v == 3));
        assert!(!c.or_all(|_| false));
        assert_eq!(c.max_all(|v| -(v as i64)), 0);
        assert_eq!(c.min_all(|v| v as i64 * 2), 0);
        assert_eq!(c.rounds(), 5);
    }

    #[test]
    fn phases_attribute_rounds() {
        let mut c = Clique::new(4);
        c.phase("setup", |c| {
            c.broadcast(|v| v as u64);
        });
        c.phase("work", |c| {
            c.broadcast(|v| v as u64);
            c.broadcast(|v| v as u64);
        });
        assert_eq!(c.stats().phase("setup").unwrap().rounds, 1);
        assert_eq!(c.stats().phase("work").unwrap().rounds, 2);
        assert_eq!(c.rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "broadcast congested clique")]
    fn broadcast_mode_forbids_exchange() {
        let cfg = CliqueConfig {
            mode: Mode::Broadcast,
            ..CliqueConfig::default()
        };
        let mut c = Clique::with_config(4, cfg);
        let _ = c.exchange(|_| vec![]);
    }

    #[test]
    fn broadcast_mode_gossip_costs_max_contribution() {
        let cfg = CliqueConfig {
            mode: Mode::Broadcast,
            ..CliqueConfig::default()
        };
        let mut c = Clique::with_config(4, cfg);
        let all = c.gossip(|v| vec![v as u64; v + 1]);
        assert_eq!(all.len(), 1 + 2 + 3 + 4);
        assert_eq!(c.rounds(), 4); // max contribution, no n-fold speedup
    }

    #[test]
    fn pattern_fingerprints_are_input_independent_for_fixed_pattern() {
        let run = |payload: u64| {
            let cfg = CliqueConfig {
                record_patterns: true,
                ..CliqueConfig::default()
            };
            let mut c = Clique::with_config(4, cfg);
            c.exchange(|v| vec![((v + 1) % 4, vec![payload + v as u64])]);
            c.stats().pattern_fingerprints().to_vec()
        };
        assert_eq!(run(10), run(999));
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_clique_rejected() {
        let _ = Clique::new(1);
    }

    #[test]
    fn reset_replays_a_fresh_clique_bit_for_bit() {
        let cfg = CliqueConfig {
            record_patterns: true,
            ..CliqueConfig::default()
        };
        let workload = |c: &mut Clique| {
            let ib = c.route(|v| vec![((v + 1) % 6, vec![v as u64 * 3, v as u64])]);
            let sum = c.sum_all(|v| v as i64);
            let received: Vec<_> = (0..6)
                .map(|d| ib.received(d, (d + 5) % 6).to_vec())
                .collect();
            (
                received,
                sum,
                c.rounds(),
                c.stats().words(),
                c.stats().pattern_fingerprints().to_vec(),
            )
        };
        let mut fresh = Clique::with_config(6, cfg.clone());
        let reference = workload(&mut fresh);

        // A warm instance, reset between runs, replays the fresh run
        // exactly — the contract warm pools rely on.
        let mut warm = Clique::with_config(6, cfg);
        for _ in 0..3 {
            warm.reset();
            assert_eq!(warm.rounds(), 0, "reset zeroes the accounting");
            assert_eq!(workload(&mut warm), reference);
        }
        assert!(warm.transport_epochs() > 0, "epochs survive resets");
    }

    #[test]
    fn netsim_conditioning_changes_sim_time_but_nothing_else() {
        use cc_netsim::NetsimProfile;
        let workload = |cfg: CliqueConfig| {
            let mut c = Clique::with_config(8, cfg);
            let ib = c.route(|v| vec![((v + 3) % 8, vec![v as u64 * 7, v as u64])]);
            let sum = c.sum_all(|v| v as i64);
            let received: Vec<_> = (0..8)
                .map(|d| ib.received(d, (d + 5) % 8).to_vec())
                .collect();
            let sim = c.sim_time_ns();
            (
                (
                    received,
                    sum,
                    c.rounds(),
                    c.stats().words(),
                    c.stats().pattern_fingerprints().to_vec(),
                ),
                sim,
                c.net_retransmits(),
            )
        };
        let base = CliqueConfig {
            record_patterns: true,
            netsim: NetsimConfig::default(), // off
            ..CliqueConfig::default()
        };
        let lossy = CliqueConfig {
            netsim: NetsimConfig {
                profile: NetsimProfile::Lossy,
                seed: 42,
            },
            ..base.clone()
        };
        let (reference, off_sim, off_rx) = workload(base);
        assert_eq!((off_sim, off_rx), (0, 0), "off charges no simulated time");
        let (outcome_a, sim_a, _) = workload(lossy.clone());
        let (outcome_b, sim_b, _) = workload(lossy);
        assert_eq!(outcome_a, reference, "conditioning must not change results");
        assert_eq!(outcome_b, reference);
        assert!(sim_a > 0, "lossy profile must accrue simulated time");
        assert_eq!(sim_a, sim_b, "sim time is a pure function of the seed");
    }

    #[test]
    fn netsim_sim_time_attributes_to_phases_and_resets() {
        use cc_netsim::NetsimProfile;
        let cfg = CliqueConfig {
            netsim: NetsimConfig {
                profile: NetsimProfile::Lan,
                seed: 9,
            },
            ..CliqueConfig::default()
        };
        let mut c = Clique::with_config(4, cfg);
        c.phase("ping", |c| {
            c.broadcast(|v| v as u64);
        });
        let phase_sim = c.stats().phase("ping").unwrap().sim_time_ns;
        assert!(phase_sim > 0, "phase must see the conditioned barrier");
        assert_eq!(c.sim_time_ns(), phase_sim);
        c.reset();
        assert_eq!(c.sim_time_ns(), 0, "reset re-anchors simulated time");
        c.broadcast(|v| v as u64);
        assert!(c.sim_time_ns() > 0, "post-reset barriers accrue fresh time");
    }

    #[test]
    fn shared_executor_handle_is_used_not_rebuilt() {
        let exec = Executor::new(ExecutorKind::Parallel { threads: 3 });
        assert_eq!(exec.threads_spawned(), 2);
        let a = Clique::with_config_and_executor(4, CliqueConfig::default(), exec.clone());
        let b = Clique::with_config_and_executor(4, CliqueConfig::default(), exec.clone());
        // Neither clique spawned workers of its own: both share the pool.
        assert_eq!(exec.threads_spawned(), 2);
        assert_eq!(a.executor().threads_spawned(), 2);
        assert_eq!(b.executor().threads_spawned(), 2);
    }
}
