//! # congested-clique
//!
//! A reproduction of *"Algebraic Methods in the Congested Clique"*
//! (Censor-Hillel, Kaski, Korhonen, Lenzen, Paz, Suomela — PODC 2015) as a
//! Rust library suite. This facade crate re-exports the workspace crates:
//!
//! * [`runtime`] — the sharded, multi-threaded execution engine
//!   ([`NodeProgram`](runtime::NodeProgram) state machines, pluggable
//!   [`Sequential`/`Parallel`](runtime::ExecutorKind) executors).
//! * [`transport`] — pluggable message fabrics carrying the simulation's
//!   traffic: in-memory, or multi-process over unix sockets or TCP.
//! * [`netsim`] — deterministic network conditioning behind the transport
//!   seam: per-link latency/jitter, stragglers, message loss with
//!   retransmit, node crash/restart fault plans.
//! * [`clique`] — the congested clique simulator (rounds, links, routing).
//! * [`algebra`] — semirings, rings, matrices, bilinear (Strassen) algorithms.
//! * [`graph`] — graph types, generators, and centralized reference oracles.
//! * [`core`] — distributed matrix multiplication and distance products
//!   (the paper's primary contribution).
//! * [`subgraph`] — triangle/4-cycle counting, k-cycle detection, girth.
//! * [`apsp`] — all-pairs shortest path algorithms and routing tables.
//! * [`service`] — the batched query-serving layer: graph registry, warm
//!   clique pools, fingerprint-keyed result caching, deterministic batch
//!   scheduling.
//! * [`telemetry`] — zero-cost-when-disabled observability: structured
//!   trace events, per-round/per-link metrics, pluggable sinks.
//! * [`baselines`] — prior-work baselines (Dolev et al., naive algorithms).
//! * [`congest`] — the CONGEST model substrate (the paper's §5 future-work
//!   direction) with classical comparison algorithms.
//!
//! ## Quickstart
//!
//! ```rust
//! use congested_clique::clique::Clique;
//! use congested_clique::graph::Graph;
//! use congested_clique::subgraph::count_triangles;
//!
//! // A 5-cycle plus a chord has exactly one triangle.
//! let mut g = Graph::undirected(5);
//! for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
//!     g.add_edge(u, v);
//! }
//! let mut clique = Clique::new(5);
//! assert_eq!(count_triangles(&mut clique, &g), 1);
//! ```
//!
//! ## Runtime & execution model
//!
//! Simulated nodes are embarrassingly parallel within a round, and the
//! [`runtime`] crate exploits that: a [`Clique`](clique::Clique) runs on a
//! pluggable executor chosen through
//! [`CliqueConfig::executor`](clique::CliqueConfig) —
//! [`ExecutorKind::Sequential`](runtime::ExecutorKind) (the reference
//! semantics, and the default) or
//! [`ExecutorKind::Parallel`](runtime::ExecutorKind) (the **persistent
//! worker pool**). Setting the `CC_EXECUTOR` environment variable
//! (`sequential` / `parallel`, optionally `:<threads>`) retargets
//! every default-configured clique in the process. The executor axis is
//! held in-process by `ported_algorithms_are_executor_independent` and its
//! neighbours in `tests/runtime_determinism.rs`.
//!
//! ### Pool lifecycle
//!
//! The pooled executor's threads are created **once**, in
//! [`Executor::new`](runtime::Executor::new) (i.e. when the `Clique` is
//! built): `threads − 1` workers are spawned eagerly and park on a condvar.
//! Every `map`/`map_chunks_mut`/engine round then *reuses* them — a job is
//! published to the parked workers, the calling thread joins in as one
//! more participant, and a barrier collects per-worker results for the
//! deterministic merge-by-index. No call ever spawns a thread
//! ([`Executor::threads_spawned`](runtime::Executor::threads_spawned) is
//! the race-free per-executor probe the tests pin). When the
//! last executor handle drops — normally when the `Clique` does — the
//! workers are woken, joined, and gone. Jobs smaller than a tunable
//! cutover ([`Executor::with_cutover`](runtime::Executor::with_cutover) or
//! `CliqueConfig::exec_cutover`; default
//! [`DEFAULT_SEQ_CUTOVER`](runtime::DEFAULT_SEQ_CUTOVER)) run inline on
//! the caller, so small-`n` simulations pay no dispatch overhead at all.
//!
//! What the executor fans out is *node-local* work: message generators
//! (`exchange_par` / `route_par` / `gossip_par`), the local steps of the
//! algorithms, and the steps of [`NodeProgram`](runtime::NodeProgram)s.
//! The communication step itself is one sequential pass, because it is
//! cheap by construction: a round's messages — a generator's or a program's
//! [`Outbox`](runtime::Outbox) — are counting-sorted into **one flat buffer
//! per round** (a [`LinkSlab`](runtime::LinkSlab), see "Transport layer"
//! below), handed to the fabric in a single call, and — on the in-memory
//! fabric, [`RoundDelivery::in_memory`](runtime::RoundDelivery::in_memory)
//! — handed back as the inboxes without a word being copied. A program's
//! inbox is a view of its row of that slab; the engine's barrier is the
//! [`Fabric`](runtime::Fabric) seam, where a transport plugs in. The
//! balanced router
//! draws a relay per word and counts per-link loads once per message
//! *shape* (pass one, cached process-wide: see "Relay schedules" in
//! [`clique`]), then scatters the words into each phase's slab by that
//! table (pass two); nothing on the path allocates per word or per link.
//!
//! The determinism contract is strict: results, executed round counts, and
//! communication-pattern fingerprints are **bit-identical** across
//! executors (property-tested in `tests/runtime_determinism.rs`), so round
//! accounting — the quantity the paper is about — never depends on how the
//! simulation is scheduled. Only wall-clock changes:
//!
//! ```rust
//! use congested_clique::algebra::{IntRing, Matrix};
//! use congested_clique::clique::Clique;
//! use congested_clique::core::{fast_mm, RowMatrix};
//!
//! let n = 8;
//! let a = Matrix::from_fn(n, n, |i, j| (i + j) as i64);
//! let mut sequential = Clique::new(n);
//! let mut parallel = Clique::parallel(n); // pool sized to the machine
//! let ra = RowMatrix::from_matrix(&a);
//! let p1 = fast_mm::multiply_auto(&mut sequential, &IntRing, &ra, &ra);
//! let p2 = fast_mm::multiply_auto(&mut parallel, &IntRing, &ra, &ra);
//! assert_eq!(p1.to_matrix(), p2.to_matrix());
//! assert_eq!(sequential.rounds(), parallel.rounds());
//! ```
//!
//! ### What runs on the parallel runtime
//!
//! The whole algorithm layer now rides the executor, not just the MM core:
//!
//! * [`core`] — `fast_mm`, `semiring_mm` (witnessed distance products),
//!   `boolean`, and `distance` fan node-local steps out via
//!   [`Executor::map`](runtime::Executor::map) and communicate through the
//!   `_par` primitives;
//! * [`apsp`] — `apsp_exact`, `apsp_seidel`, `apsp_approx`,
//!   `apsp_small_weights`/`reachability` tabulate rows, run fixpoint scans,
//!   and reconstruct tables on the backend;
//! * [`subgraph`] — triangle counting, the Theorem 4 4-cycle detector,
//!   `sparse_square`, girth (and their gossip/exchange/route phases via
//!   `exchange_par`, `route_dynamic_par`, `gossip_par`).
//!
//! Algorithms opt in at two levels: coordinator-style code keeps the
//! closure primitives (`exchange_par`, `route_par`, `route_dynamic_par`,
//! `gossip_par` take `Fn + Sync` generators evaluated on the backend, and
//! node-local loops fan out via [`Executor::map`](runtime::Executor::map)),
//! while fully distributed algorithms implement
//! [`NodeProgram`](runtime::NodeProgram) — a per-node state machine driven
//! round-by-round by the [`Engine`](runtime::Engine) (see
//! [`Clique::run_programs`](clique::Clique::run_programs) and the
//! `runtime_engine` example). The flagship state machine is
//! [`subgraph::TriangleProgram`]: the full 3D triangle-counting algorithm
//! with coordinator-free oblivious relay routing, whose counts *and* round
//! costs match the closure implementation exactly.
//!
//! ### Sparse & rectangular MM (Le Gall 2016)
//!
//! The seed paper's engines are dense-only; Le Gall's follow-up (*"Further
//! Algebraic Algorithms in the Congested Clique Model"*, PODC 2016) shows
//! the model rewards structure, and [`core::sparse_mm`] /
//! [`core::rect_mm`] implement that reading:
//!
//! * [`core::sparse_mm::multiply`] spreads the
//!   `W = Σ_k nnz(col_k S)·nnz(row_k T)` elementary products of the
//!   outer-product decomposition over nnz-proportional helper grids (the
//!   [`core::SparsePlan`], built identically at every node from a
//!   one-round census), so costs track `W/n` — constant rounds for
//!   bounded-degree instances — instead of the dense engines'
//!   size-driven round counts.
//! * [`core::rect_mm::multiply`] prices `n × m · m × n` products
//!   ([`core::RectMatrix`]) by the inner dimension: a thin `m` is extreme
//!   sparsity (padded inner indices get no helpers at all), a wide `m` is
//!   `⌈m/n⌉` dispatched slabs.
//! * The **density dispatchers** — [`core::sparse_mm::multiply_auto`],
//!   [`core::sparse_mm::multiply_auto_ring`],
//!   [`core::sparse_mm::distance_product_with_witness_auto`] — compare the
//!   census-derived sparse estimate against a dense-engine yardstick and
//!   pick per instance. The explicit sparse entry points are checked on a
//!   dense input too, in `sparse_and_rect_mm_are_executor_independent`
//!   (`tests/runtime_determinism.rs`). Consumers ride the front doors:
//!   [`subgraph::sparse_square`] is the Theorem 4 two-walk gate over the
//!   general sparse path, [`subgraph::count_triangles_auto`] dispatches
//!   its `A²`, and [`apsp::apsp_exact`] dispatches *per squaring*, so a
//!   sparse graph's early distance products ride the sparse path and the
//!   densified later ones the 3D engine — with identical tables either
//!   way (both engines share the smallest-witness tie-break on finite
//!   entries, the only witnesses APSP reads).
//!
//! Like everything else, the sparse path fans node-local work out on the
//! configured executor and communicates through the `_par` primitives, so
//! its results and accounting are bit-identical across backends (pinned in
//! `tests/runtime_determinism.rs`); `BENCH_sparse.json` holds the nnz
//! sweep (sparse vs dense rounds/words/wall-clock at `n ∈ {64, 128, 256}`).
//!
//! ### Local compute kernels
//!
//! Underneath every distributed engine sits a node-local dense product,
//! and that inner loop is a pluggable kernel behind
//! [`Semiring::mul_dense`](algebra::Semiring::mul_dense) — selected by
//! `CC_KERNEL` the way `CC_EXECUTOR` picks a backend:
//!
//! * `bitset` (the default, also spelled `auto`) — cache-blocked i-k-j
//!   tiles with Strassen routing for integer products, plus a
//!   **bit-packed Boolean kernel** ([`algebra::BitMatrix`] stores 64
//!   entries per `u64` word, so an AND–OR inner product runs 64 lanes per
//!   word operation) for products over [`algebra::BoolSemiring`];
//! * `blocked` — cache-blocked i-k-j tiles (`CC_TILE`, default 64) for
//!   both rings, with large square integer products routed through
//!   [`algebra::strassen_mul_with_base`] so the tiled loop becomes
//!   Strassen's base case;
//! * `naive` — the explicit escape hatch: the reference schoolbook loop,
//!   unchanged from the seed.
//!
//! The bit-packed kernel serves products taken over `BoolSemiring`
//! itself, such as the generic 3D engine called with it. It does not
//! replace the Boolean products of the paper's fast algorithms:
//! [`core::boolean::multiply`] and [`core::boolean::multiply_or`] lift
//! their operands to 0/1 integers, as the paper prescribes below
//! Lemma 11, run the integer fast product, and threshold the result, so
//! Seidel's squarings, girth, 4-cycles and triangles all reach the
//! integer tile kernel. That kernel is compiled per ISA level — AVX-512
//! (a native 8-lane 64-bit multiply), AVX2, and the baseline target —
//! and each call runs the widest level the CPU reports at run time. The
//! levels compile one loop body, so they sum in the same order and wrap
//! identically; there is no knob for them.
//!
//! The witnessed min-plus product — the local work of the 3D distance
//! product, and so of exact APSP and its routing tables — runs on the
//! same ISA ladder ([`algebra::kernel::minplus_witness`], whatever
//! `CC_KERNEL` says). Its body works on raw `i64` distance planes with a
//! separate witness plane, and keeps the engine's witness rule exactly,
//! so distances and witnesses, `∞` entries included, are bit-identical to
//! the scalar loop the kernel replaced. The plain min-plus product is
//! still the schoolbook loop.
//!
//! Kernels are *observer-equivalent*, not merely "close": `i64` addition
//! is associative, Strassen is exact over the integers, and any correct
//! Boolean method produces the same bools — so results, rounds, words,
//! and pattern fingerprints are bit-identical across `CC_KERNEL` values
//! (pinned by `algorithms_are_kernel_independent` in
//! `tests/runtime_determinism.rs`). Only `*_ns` moves:
//! `BENCH_kernel.json` holds the comparison, including the lift shape
//! (lift to `i64`, schoolbook integer product, threshold pass) against
//! the bit-packed kernel. At `CC_TRACE=full` every kernel choice is emitted
//! as a [`KernelDecision`](telemetry::Event) event.
//!
//! Relatedly, the pooled executor's dispatch cutover is self-tuning: when
//! no cutover is configured and the executor has real parallelism, a
//! one-shot startup micro-probe compares thread round-trip cost against
//! per-piece work and raises the default cutover accordingly (clamped,
//! cached per process, reported as a probe `KernelDecision` event).
//!
//! ## Transport layer
//!
//! Executors decide *who computes*; the [`transport`] layer decides *where
//! the words travel*. Every communication step — exchange flushes, both
//! balanced-routing phases, broadcasts, gossip, and each
//! [`NodeProgram`](runtime::NodeProgram) engine round — ships its traffic
//! through a pluggable [`Transport`](transport::Transport) whose round
//! barrier is a rendezvous, selected by
//! [`CliqueConfig::transport`](clique::CliqueConfig).
//!
//! A round's unicast traffic has **one representation end to end**, for
//! clique primitives and engine rounds alike: a
//! [`LinkSlab`](runtime::LinkSlab) — `n`, an offset table of `n² + 1`
//! entries, and one word buffer, laid out destination-major so that link
//! `(src, dst)` is `words[offsets[dst·n + src] .. offsets[dst·n + src + 1]]`
//! and everything one node receives is contiguous. The primitive that
//! generates the traffic builds it (a two-pass counting sort,
//! [`LinkSlab::from_runs`](runtime::LinkSlab::from_runs), or
//! [`LinkSlab::gather`](runtime::LinkSlab::gather) over the nodes'
//! outboxes) and calls
//! [`Transport::send_slab`](transport::Transport::send_slab) once; the
//! barrier returns a [`RoundDelivery`](runtime::RoundDelivery) holding
//! the delivered slab, the round's broadcast slabs (one list per *source*,
//! shared by every recipient), and the round's
//! [`LinkLoads`](runtime::LinkLoads): one destination-major count table,
//! walked in canonical `(src, dst)` order only by what iterates it.
//! [`Inboxes::received`](clique::Inboxes::received) and
//! [`RoundCtx::received`](runtime::RoundCtx::received) are slices of that
//! slab. Word-at-a-time [`Transport::send`](transport::Transport::send)
//! still exists for hand-driven rounds; such calls are logged and
//! counting-sorted into the slab at the barrier, in call order per link.
//!
//! * [`TransportKind::InMemory`](transport::TransportKind) — the classical
//!   shared-memory fabric: the barrier *moves* the slab from sender to
//!   delivery and reads the accounting off its offset table (the default,
//!   and the reference semantics);
//! * [`TransportKind::Socket`](transport::TransportKind) and
//!   [`TransportKind::Tcp`](transport::TransportKind) — **true
//!   multi-process simulation**, one fabric
//!   ([`StreamTransport`](transport::StreamTransport)) reached two ways: the
//!   orchestrator spawns worker processes, each simulating a contiguous
//!   shard of destinations, over unix domain sockets (`socket`,
//!   `cc-clique-node` workers) or TCP streams (`tcp`, `cc-clique-host`
//!   workers, host-portable), and every round's words cross as
//!   length-prefixed frames ([`transport::Frame`], property-tested to
//!   round-trip bit-exactly). The slab is the wire unit: a worker's shard is
//!   one contiguous range of it and travels as **one**
//!   [`Frame::Shard`](transport::Frame::Shard) — the per-link length
//!   table, then the words, encoded straight from the slab's slices — and
//!   comes back as one echoed frame appended to the delivered slab whole.
//!   The barrier is a *round-commit token*
//!   ([`Frame::Commit`](transport::Frame::Commit)): each worker reports the
//!   words it charged as a dense table laid out like its shard, the
//!   orchestrator reads the canonical loads off those tables with no
//!   sort, and a round is charged only after every worker commits its
//!   epoch. That is the *star*: every round's words transit the
//!   orchestrator. TCP adds a *peer-resident mode* (`tcp-peer`):
//!   [`WireProgram`](runtime::WireProgram) shards are serialized and
//!   shipped to the workers **once**, per-round messages flow worker →
//!   worker over direct peer links — the slab is the wire unit here too, one
//!   [`Frame::Shard`](transport::Frame::Shard) per peer per round — and the
//!   orchestrator's per-round role shrinks to brokering the barrier and
//!   collecting final states.
//!
//! The setup handshake is the same on both: a worker is started as
//! `<binary> <endpoint> <worker>` (`unix://<path>` or
//! `tcp://<host>:<port>`), connects, and greets with `Hello` + `PeerAddr`
//! (the peer listener it bound on TCP; empty on a unix socket); the
//! orchestrator answers with the shard assignment and the full **routing
//! table** (`Assign` + `Peers`), from which TCP workers dial each other
//! lazily. A worker refuses an assignment it could not serve (an empty
//! clique, a shard past it, a shard table no frame could carry, a routing
//! table that does not reach it) before sizing anything from it. A resident
//! session is `ResidentStart` + one `Program` frame per owned node; each
//! round a worker steps its shard locally, gathers its nodes' outboxes
//! into one slab, keeps its own destination range and ships every peer
//! the peer's range as one `Shard` frame (none when empty) with the
//! round's `Bcast` slabs, and reports `ResidentDone` (live count, peer
//! bytes, and the words charged on every owned link as the dense table
//! `Commit` carries) — the orchestrator reads the canonical loads off the
//! tables in `(src, dst)` order and answers `Release`, so the barrier
//! epoch stream stays identical to the star's. A receiving worker
//! refuses a shard from another epoch, for destinations it does not own,
//! with a short table, a second one from the same peer, or with words on
//! a link whose source its sender does not simulate. For **multi-host
//! runs**, start the
//! orchestrating process with
//! `CC_TCP_EXTERN=1 CC_TRANSPORT=tcp-peer:<workers>:<host>:<port>` and
//! launch one `cc-clique-host tcp://<host>:<port> <worker>` per worker
//! index on the remote machines (the facade's worker binary registers
//! every shipped [`WireProgram`](runtime::WireProgram), e.g.
//! [`subgraph::TriangleProgram`]); single-host runs spawn workers
//! automatically.
//!
//! The determinism contract extends across fabrics: deliveries, rounds,
//! words, pattern fingerprints, and barrier epochs are **bit-identical**
//! on all of them — star or peer-resident — (pinned across the transport
//! × executor matrix in `tests/runtime_determinism.rs`), so where the
//! traffic travels is a deployment choice, never a semantics choice.
//! `CC_TRANSPORT` (`inmemory` / `socket[:workers]` /
//! `tcp[:workers][:host:port]` / `tcp-peer[:workers][:host:port]`)
//! retargets every default-configured simulation the way `CC_EXECUTOR`
//! does for executors (`algorithms_are_transport_independent` holds the
//! fabric axis in-process), and an
//! unrecognised value is reported once, not silently swallowed.
//! [`Clique::orchestrator_bytes`](clique::Clique::orchestrator_bytes)
//! exposes the refactor's payoff as a number: the payload bytes that
//! transited the orchestrator, **≈ 0 in peer-resident mode** while star
//! mode carries every round through it (asserted in CI on
//! `BENCH_transport.json`'s `bytes_through_orchestrator` column).
//! `BENCH_transport.json` records the overhead per fabric; the
//! `multi_process` example drives the socket and TCP orchestrators end
//! to end. A star round puts one batch per `(worker, round)` on the wire
//! each way — the shard frame, the broadcast slabs (encoded once for all
//! workers) and the round delimiter out; the echoed shard and the commit
//! token back — and the byte stream is identical to frame-by-frame
//! writes (property-tested, including chunked partial-read delivery).
//!
//! ## Network conditions & fault injection
//!
//! Transports decide where the words travel; the [`netsim`] layer
//! ([`cc_netsim`]) decides what the journey *costs* — and what goes wrong
//! on the way. A [`Netsim`](netsim::Netsim) is no layer over the
//! transport: it is data the clique's network consults at the one place
//! it observes a committed barrier — closure primitives, classical engine
//! rounds and resident sessions alike — reading only that round's epoch
//! and [`LinkLoads`](runtime::LinkLoads). It conditions every committed
//! round from **one seeded RNG keyed by (seed, epoch, src, dst)** — no
//! wall-clock, no OS entropy, no delivery-order dependence:
//!
//! * **Latency & stragglers** — each delivering link draws a simulated
//!   delay (base + per-word + jitter, occasionally stretched by a
//!   straggler multiplier); a round's simulated completion time is the
//!   *max over delivering links*, accumulated into the new `sim_time_ns`
//!   accounting column ([`Clique::sim_time_ns`](clique::Clique),
//!   [`PhaseStats::sim_time_ns`](clique::PhaseStats) — phase attribution
//!   and [`reset`](clique::Clique::reset) work exactly like rounds).
//! * **Loss & retransmit** — links drop words with per-profile
//!   probability; lost deliveries retry with exponential backoff in
//!   *simulated* time (bounded attempts, loud panic past the budget), so
//!   loss stretches `sim_time_ns` and bumps the retransmit counter but
//!   **never changes what arrives**.
//! * **Crash/restart fault plans** — the flaky-node profile periodically
//!   crashes a deterministic node; the engine's recovery hook re-ships the
//!   [`WireProgram`](runtime::WireProgram)'s serialized state and replays
//!   the interrupted round, so even a mid-run crash leaves results
//!   bit-identical.
//!
//! The determinism contract **splits** here, deliberately: results,
//! rounds, words, pattern fingerprints, and barrier epochs are
//! bit-identical between a conditioned and an unconditioned run — under
//! loss *and* under crash recovery — while `sim_time_ns`, retransmit, and
//! fault counts are bit-reproducible *per netsim seed* (both halves pinned
//! in `tests/runtime_determinism.rs`, and asserted again before
//! `BENCH_netsim.json` is exported). Conditioning is configured by
//! [`CliqueConfig::netsim`](clique::CliqueConfig) or the `CC_NETSIM`
//! variable (`off` | `lan` | `wan` | `lossy` | `flaky-node`, optionally
//! `:seed`), which rides the same warn-once [`runtime::env_config`] parser
//! as `CC_EXECUTOR`. `algorithms_are_netsim_condition_independent` holds
//! the netsim axis, every profile and a lossy TCP star included.
//! `BENCH_netsim.json` charts
//! the profiles (simulated time, retransmits, wall-clock overhead) across
//! backends; the `multi_process` example conditions a multi-process fabric
//! with the lossy profile and reproduces the clean run bit for bit.
//!
//! ## Service layer
//!
//! Everything above answers *one* question per simulator; the [`service`]
//! layer ([`cc_service`]) is the front door for *traffic*. The request
//! lifecycle is **register → submit → batch → cache**:
//!
//! 1. **Register** — [`Service::register`](service::Service::register)
//!    content-fingerprints the graph
//!    ([`Graph::fingerprint`](graph::Graph::fingerprint)), deduplicates it
//!    against every earlier registration, and shares the adjacency via
//!    `Arc`. Equal graphs get equal ids — and therefore one cache
//!    universe.
//! 2. **Submit** — typed queries
//!    ([`Query::TriangleCount`](service::Query::TriangleCount),
//!    [`ApspTable`](service::Query::ApspTable),
//!    [`Distance`](service::Query::Distance),
//!    [`GirthBound`](service::Query::GirthBound),
//!    [`SubgraphFlag`](service::Query::SubgraphFlag)) queue against a
//!    registered graph and return a [`Ticket`](service::Ticket).
//! 3. **Batch** — [`Service::drain`](service::Service::drain) processes
//!    the queue as one batch: a seeded deterministic drain order,
//!    duplicate in-flight queries coalesced into a single computation,
//!    and the coalesced computations fanned over **warm pool instances**
//!    ([`CliquePool`](service::CliquePool)) on the shared executor.
//!    Instances are checked out, [`reset`](clique::Clique::reset) (warm
//!    threads/processes kept, accounting zeroed), and checked back in —
//!    never rebuilt; a reset clique replays a fresh one bit-for-bit.
//! 4. **Cache** — every computation is stored under graph fingerprint +
//!    computation kind + config-relevant knobs. A repeated query is
//!    served with **zero additional simulated rounds** and a
//!    bit-identical [`QueryOutcome`](service::QueryOutcome) (answer *and*
//!    the priming run's rounds/words); cached APSP tables memoize
//!    point-to-point distance queries into O(1) lookups. Executor and
//!    transport are deliberately absent from the key: the determinism
//!    contract makes backends interchangeable, so a result primed
//!    anywhere is valid everywhere.
//!
//! `CC_SERVICE` (`direct` or `batch[:instances]`) retargets every
//! default-configured service the way `CC_EXECUTOR` and `CC_TRANSPORT`
//! do theirs (all three ride one shared warn-once parser,
//! [`runtime::env_config`]). The scheduler axis is held by
//! `crates/service/tests/service_behaviour.rs`:
//! `direct_and_batch_modes_serve_identical_outcomes` compares the modes,
//! and `batches_fan_mixed_graphs_and_sizes_through_the_warm_pool` fans a
//! batch over three instances.
//! `BENCH_service.json` quantifies the point of the layer:
//! warm-pool, duplicate-heavy batches against cold one-shot calls at
//! duplicate ratios {0%, 50%, 90%}. The `query_service` example drives a
//! mixed workload end to end.
//!
//! ## Observability
//!
//! The determinism contract says *that* the stack is correct; the
//! [`telemetry`] layer ([`cc_telemetry`]) says *where wall-clock goes*.
//! Every layer emits structured [`Event`](telemetry::Event)s through one
//! process-global [`Telemetry`](telemetry::Telemetry) handle:
//!
//! * the [`Engine`](runtime::Engine) times each round barrier (node
//!   stepping vs delivery) and the [`Executor`](runtime::Executor) reports
//!   every dispatch-vs-inline decision at the cutover boundary;
//! * every round barrier the clique commits reports its backend's
//!   per-round link histogram — words per link, max-vs-mean skew, barrier
//!   wait — observed by the clique's network at the same point the
//!   simulated link conditions read the round (whether round tracing is on
//!   is fixed when the clique is built); the socket fabrics add their
//!   coalesced frame-batch sizes;
//! * [`Clique::phase`](clique::Clique::phase) adds wall-clock to the
//!   rounds/words it already attributes
//!   ([`PhaseStats::wall_ns`](clique::PhaseStats)), and emits phase
//!   start/end events;
//! * the [`service`] publishes gauges per drained batch: cache
//!   entries/bytes, hit and coalescing ratios, warm-pool occupancy,
//!   per-query latency.
//!
//! The `CC_TRACE` variable selects the level for every default-configured
//! run, mirroring `CC_EXECUTOR`/`CC_TRANSPORT`: `off` (default),
//! `summary` (phases, config warnings, service gauges), `rounds`
//! (+ per-round engine/transport events), `full` (+ per-dispatch executor
//! decisions and frame batches); any level may append `:path` to write
//! JSONL ([`JsonlSink`](telemetry::JsonlSink)) instead of aggregating in
//! memory ([`MemorySink`](telemetry::MemorySink)). Malformed values —
//! `full:` (empty path), `off:path`, unknown names — are rejected whole
//! and warned once, like `parallel:banana`. Render a capture with
//! [`RoundTimeline`](telemetry::RoundTimeline): one line per engine/
//! transport round (`engine round 3: live=8 step=1.2ms barrier=0.3ms …`,
//! `socket epoch 3: links=56 words=448 max=8 mean=8.0 hist=[#]`) followed
//! by per-phase and per-backend totals — the `trace_run` example prints
//! one for a traced triangle count.
//!
//! ### Distributed capture
//!
//! On the multi-process backends the interesting work happens in worker
//! processes, so the capture is distributed. The orchestrator forwards its
//! resolved trace level in the setup handshake — an extra `cc-clique-node`
//! argv for the unix-socket backend, the `trace` field of
//! [`Frame::Assign`](transport::Frame::Assign) for TCP — so multi-host
//! workers inherit the level without relying on their own `CC_TRACE`
//! environment. Each traced worker installs a buffering
//! [`WireSink`](telemetry::WireSink) at startup and captures the event
//! stream it would locally: frame batches, resident rounds, kernel
//! decisions, config warnings. Snapshots travel back as
//! [`Frame::Telemetry`](transport::Frame::Telemetry) — serialized
//! event-JSON lines riding the existing streams just ahead of each
//! round-commit token (and once more at shutdown), so there are no extra
//! sockets and the barrier protocol is unchanged. The orchestrator merges
//! every snapshot into its [`MemorySink`](telemetry::MemorySink) wrapped in
//! [`Event::Worker`](telemetry::Event::Worker) for per-process
//! attribution: worker events land in per-worker aggregates only, never in
//! the global transport totals (which would double-count the fabric).
//!
//! The merged stream supports **per-round critical-path attribution**: the
//! orchestrator stamps a [`BarrierLane`](telemetry::Event::BarrierLane)
//! per (backend, epoch, worker) as commit tokens arrive, and
//! [`MemorySnapshot::critical_path`](telemetry::MemorySnapshot::critical_path)
//! reduces the lanes to, per epoch, which worker closed the barrier last,
//! its wall-clock against the round median (straggler skew), and
//! [`worker_busy_idle`](telemetry::MemorySnapshot::worker_busy_idle)
//! accumulates each worker's busy/idle split. Reading the
//! [`RoundTimeline`](telemetry::RoundTimeline) output: indented `w<id> …`
//! lines are worker-lane events nested under the orchestrator's rounds;
//! the `critical path` footer prints one line per epoch
//! (`socket epoch 3: closer=w1 max=0.8ms median=0.5ms skew=1.60
//! lanes[w0=0.5ms w1=0.8ms*]` — the starred lane closed the barrier);
//! the `workers` footer totals each process's events and busy/idle;
//! deduplicated config warnings list once with a `[xN processes]` count.
//!
//! Instrumentation is **observer-only**: `CC_TRACE=full` — including the
//! distributed capture and snapshot shipping above — leaves results,
//! rounds, words, and fingerprints bit-identical to `CC_TRACE=off` on all
//! six transport entries (pinned by the subprocess probe in
//! `tests/runtime_determinism.rs`), and at the default `off` every emit
//! site is a single branch on an already-resolved handle; untraced workers
//! ship zero extra bytes. The `cc-report` binary (`cargo run --release -p
//! cc-bench --bin cc-report`) collates the `BENCH_*.json` suite plus a
//! live capture per transport backend into a schema-versioned
//! `BENCH_telemetry.json` (v2: per-worker columns and the per-epoch
//! critical-path table join the v1 fields); `cc-report --replay
//! <capture.jsonl>` re-renders an existing JSONL capture as a
//! `RoundTimeline` offline.

pub use cc_algebra as algebra;
pub use cc_apsp as apsp;
pub use cc_baselines as baselines;
pub use cc_clique as clique;
pub use cc_congest as congest;
pub use cc_core as core;
pub use cc_graph as graph;
pub use cc_netsim as netsim;
pub use cc_runtime as runtime;
pub use cc_service as service;
pub use cc_subgraph as subgraph;
pub use cc_telemetry as telemetry;
pub use cc_transport as transport;
