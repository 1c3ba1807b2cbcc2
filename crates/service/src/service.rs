//! The [`Service`]: submission queue, deterministic batch scheduler,
//! duplicate coalescing, and cache-backed resolution.

use crate::cache::{CacheKey, Primed, ResultCache};
use crate::pool::CliquePool;
use crate::query::{ComputeKind, Query, Response};
use crate::registry::{GraphId, GraphRegistry};
use cc_apsp::apsp_exact;
use cc_clique::{Clique, CliqueConfig, Mode};
use cc_graph::Graph;
use cc_subgraph::{count_triangles_auto, detect_4cycle, directed_girth, girth, GirthConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Pool instances a batch fans over when [`ServiceMode::Batch`] leaves the
/// count unspecified (`instances: 0`). Two is the smallest count that
/// exercises the fan-out path.
pub const DEFAULT_BATCH_INSTANCES: usize = 2;

/// Default cap on retained unredeemed outcomes (see
/// [`ServiceConfig::max_unredeemed`]).
pub const DEFAULT_MAX_UNREDEEMED: usize = 1024;

/// Default cap on primed computations the result cache retains (see
/// [`ServiceConfig::max_cached`]).
pub const DEFAULT_MAX_CACHED: usize = 4096;

/// Default cap on the result cache's approximate byte footprint (see
/// [`ServiceConfig::max_cache_bytes`]): 64 MiB.
pub const DEFAULT_MAX_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// How the service schedules submitted queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Every submission is computed immediately at [`Service::submit`]
    /// (still cache-backed); [`Service::drain`] is a no-op. The one-shot
    /// calling convention, kept for ablation against the batch scheduler.
    Direct,
    /// Submissions queue until [`Service::drain`], which processes them as
    /// one batch: seeded deterministic order, duplicate queries coalesced
    /// into one computation, independent computations fanned over warm
    /// pool instances on the configured executor.
    Batch {
        /// Pool instances a batch fans over; `0` means
        /// [`DEFAULT_BATCH_INSTANCES`].
        instances: usize,
    },
}

impl Default for ServiceMode {
    fn default() -> Self {
        Self::from_env_or(ServiceMode::Batch { instances: 0 })
    }
}

impl ServiceMode {
    /// Parses a scheduler spec: `direct`, or `batch` optionally suffixed
    /// `:<instances>` as in `batch:4`. `None` for unknown names or
    /// malformed suffixes — `batch:banana` must not silently mean "default
    /// instances" (the same contract as `CC_EXECUTOR` / `CC_TRANSPORT`).
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let (name, instances) = match raw.split_once(':') {
            Some((name, k)) => (name, Some(k.parse::<usize>().ok()?)),
            None => (raw, None),
        };
        match (name.to_ascii_lowercase().as_str(), instances) {
            ("direct" | "oneshot", None) => Some(ServiceMode::Direct),
            ("batch" | "batched", k) => Some(ServiceMode::Batch {
                instances: k.unwrap_or(0),
            }),
            _ => None,
        }
    }

    /// Reads the scheduler from the `CC_SERVICE` environment variable,
    /// falling back to `fallback` when unset — mirroring `CC_EXECUTOR` and
    /// `CC_TRANSPORT`, it moves every default-configured service in the
    /// process onto one scheduler. A malformed value is
    /// reported once per process (the shared
    /// [`cc_runtime::env_config`] contract) before falling back.
    #[must_use]
    pub fn from_env_or(fallback: ServiceMode) -> Self {
        cc_runtime::env_config::from_env_or(
            "cc-service",
            "CC_SERVICE",
            "direct or batch[:instances]",
            fallback,
            Self::parse,
        )
    }

    /// The fan-out width this mode gives a batch.
    fn instances(self) -> usize {
        match self {
            ServiceMode::Direct => 1,
            ServiceMode::Batch { instances: 0 } => DEFAULT_BATCH_INSTANCES,
            ServiceMode::Batch { instances } => instances,
        }
    }
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration every pooled clique instance is built with. Must be
    /// [`Mode::Unicast`] (the algorithm layer's point-to-point primitives
    /// are unavailable in the broadcast clique).
    pub clique: CliqueConfig,
    /// Scheduler (see [`ServiceMode`]); the default consults `CC_SERVICE`.
    pub mode: ServiceMode,
    /// Seed of the deterministic batch drain order.
    pub batch_seed: u64,
    /// Parameters for [`Query::GirthBound`] on undirected graphs.
    pub girth: GirthConfig,
    /// Cap on outcomes retained for unredeemed tickets. A caller that
    /// submits without ever calling [`Service::take`] used to grow the
    /// outcome map without bound; past this cap the **oldest** unredeemed
    /// outcomes are dropped at each drain (warned once per service, counted
    /// in [`ServiceStats::outcomes_evicted`]). `0` means
    /// [`DEFAULT_MAX_UNREDEEMED`].
    pub max_unredeemed: usize,
    /// Cap on primed computations the result cache retains. Past it, each
    /// drain evicts the **oldest-primed** entries (a deterministic order —
    /// priming follows the seeded batch drain), warns once per service, and
    /// counts every drop in [`ServiceStats::results_evicted`]. An evicted
    /// computation is simply re-primed on its next submission — answers
    /// never change, only whether a replay is free. `0` means
    /// [`DEFAULT_MAX_CACHED`].
    pub max_cached: usize,
    /// Companion byte cap on the cache's approximate footprint
    /// ([`Service::cache_bytes`]); enforced with the same oldest-first
    /// policy. The newest entry always survives even when it alone exceeds
    /// the cap, so the hot key keeps replaying for free. `0` means
    /// [`DEFAULT_MAX_CACHE_BYTES`].
    pub max_cache_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            clique: CliqueConfig::default(),
            mode: ServiceMode::default(),
            batch_seed: 0x5e71_1ce5,
            girth: GirthConfig::default(),
            max_unredeemed: DEFAULT_MAX_UNREDEEMED,
            max_cached: DEFAULT_MAX_CACHED,
            max_cache_bytes: DEFAULT_MAX_CACHE_BYTES,
        }
    }
}

impl ServiceConfig {
    /// Digest of the knobs that can move a computation's answer or
    /// accounting: the relay seed and policy, and the girth parameters.
    /// Executor and transport are excluded on purpose — the determinism
    /// contract makes them unable to change results, so cached entries
    /// stay valid across backends.
    fn knobs(&self) -> u64 {
        let mut h = splitmix(self.clique.route_seed);
        h = splitmix(h ^ self.clique.relay_policy as u64);
        h = splitmix(h ^ self.girth.ell as u64);
        h = splitmix(h ^ self.girth.trials as u64);
        splitmix(h ^ self.girth.seed)
    }
}

/// Handle to one submitted query; redeem it with [`Service::take`] after
/// the batch containing it has drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

/// A completed query: the answer, the simulated cost of the run that
/// *primed* it, and whether this particular submission was served from
/// cache (i.e. ran zero additional simulated rounds).
///
/// `rounds`/`words` are the priming run's accounting whether or not this
/// submission did the priming — that is what makes a cached replay
/// bit-identical to the fresh run, which the determinism suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The answer.
    pub response: Response,
    /// Rounds the priming simulation executed.
    pub rounds: u64,
    /// Words the priming simulation moved.
    pub words: u64,
    /// `true` when this submission ran no new simulation: it was answered
    /// by an earlier batch's cache entry, coalesced onto another in-flight
    /// submission of the same computation, or memoized out of a cached
    /// APSP table (point-to-point distances).
    pub cached: bool,
}

/// Service-lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries submitted.
    pub queries: u64,
    /// Batches drained (direct-mode submissions count one each).
    pub batches: u64,
    /// Submissions answered from a previous batch's cache entry.
    pub cache_hits: u64,
    /// Submissions coalesced onto an in-flight duplicate within a batch.
    pub coalesced: u64,
    /// Distributed computations actually run on a clique.
    pub computations: u64,
    /// Total rounds those computations executed.
    pub simulated_rounds: u64,
    /// Total words those computations moved.
    pub simulated_words: u64,
    /// Primed computations currently cached (updated at each drain; the
    /// growth gauge for the ROADMAP's unbounded-cache item).
    pub cache_entries: u64,
    /// Approximate bytes those cached computations hold.
    pub cache_bytes: u64,
    /// Unredeemed outcomes dropped by the retention cap (see
    /// [`ServiceConfig::max_unredeemed`]).
    pub outcomes_evicted: u64,
    /// Primed computations dropped by the cache caps (see
    /// [`ServiceConfig::max_cached`] / [`ServiceConfig::max_cache_bytes`]).
    pub results_evicted: u64,
}

/// One queued submission.
#[derive(Debug, Clone, Copy)]
struct Submission {
    ticket: Ticket,
    graph: GraphId,
    query: Query,
}

/// One coalesced unit of distributed work within a draining batch.
struct Job {
    key: CacheKey,
    graph: Arc<Graph>,
    kind: ComputeKind,
}

/// What one fan-out slot returns: its jobs' primed results (by job index)
/// and its checked-out cliques, ready for checkin.
type SlotOutput = (Vec<(usize, Primed)>, BTreeMap<usize, Clique>);

/// The batched query-serving front door over the whole algorithm stack.
///
/// Lifecycle: [`Service::register`] a graph once (content-fingerprinted,
/// deduplicated, `Arc`-shared) → [`Service::submit`] typed queries against
/// it → [`Service::drain`] the batch (seeded order, duplicates coalesced,
/// independent computations fanned over warm pool instances) →
/// [`Service::take`] each ticket's [`QueryOutcome`]. Repeats of a primed
/// computation are served from the fingerprint-keyed cache with zero
/// additional simulated rounds and bit-identical answers and accounting.
///
/// See the crate docs for the full architecture.
#[derive(Debug)]
pub struct Service {
    cfg: ServiceConfig,
    knobs: u64,
    registry: GraphRegistry,
    pool: CliquePool,
    cache: ResultCache,
    queue: Vec<Submission>,
    ready: BTreeMap<u64, QueryOutcome>,
    next_ticket: u64,
    stats: ServiceStats,
    /// The outcome retention cap's one warning per service lifetime has
    /// fired.
    evict_warned: bool,
    /// The cache caps' one warning per service lifetime has fired.
    cache_evict_warned: bool,
}

impl Default for Service {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl Service {
    /// Creates a service; the pool's shared executor is built here, once.
    ///
    /// # Panics
    ///
    /// Panics if the clique configuration is [`Mode::Broadcast`]: the
    /// algorithm layer needs the unicast primitives.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(
            cfg.clique.mode == Mode::Unicast,
            "cc-service needs the unicast congested clique (Mode::Unicast)"
        );
        let knobs = cfg.knobs();
        let pool = CliquePool::new(cfg.clique.clone());
        Self {
            cfg,
            knobs,
            registry: GraphRegistry::new(),
            pool,
            cache: ResultCache::default(),
            queue: Vec::new(),
            ready: BTreeMap::new(),
            next_ticket: 0,
            stats: ServiceStats::default(),
            evict_warned: false,
            cache_evict_warned: false,
        }
    }

    /// Registers a graph (see [`GraphRegistry::register`]).
    pub fn register(&mut self, graph: Graph) -> GraphId {
        self.registry.register(Arc::new(graph))
    }

    /// Registers an already-shared graph without copying it.
    pub fn register_shared(&mut self, graph: Arc<Graph>) -> GraphId {
        self.registry.register(graph)
    }

    /// Submits one query. In [`ServiceMode::Batch`] the query waits for
    /// the next [`Service::drain`]; in [`ServiceMode::Direct`] it completes
    /// before `submit` returns. Either way the ticket is redeemed with
    /// [`Service::take`].
    ///
    /// # Panics
    ///
    /// Panics on an unregistered id, on [`Query::Distance`] endpoints out
    /// of the graph's node range, and on [`Query::SubgraphFlag`] against a
    /// directed graph (the Theorem 4 detector is undirected-only).
    pub fn submit(&mut self, graph: GraphId, query: Query) -> Ticket {
        let g = self.registry.graph(graph);
        if let Query::Distance { s, t } = query {
            assert!(
                s < g.n() && t < g.n(),
                "distance endpoints ({s},{t}) out of range (n={})",
                g.n()
            );
        }
        if query == Query::SubgraphFlag {
            assert!(
                !g.is_directed(),
                "SubgraphFlag (Theorem 4) applies to undirected graphs"
            );
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.stats.queries += 1;
        self.queue.push(Submission {
            ticket,
            graph,
            query,
        });
        if self.cfg.mode == ServiceMode::Direct {
            self.drain_queue();
        }
        ticket
    }

    /// Drains the submission queue as one batch; returns how many
    /// submissions completed. A no-op when nothing is queued.
    pub fn drain(&mut self) -> usize {
        self.drain_queue()
    }

    /// Removes and returns a completed query's outcome; `None` while the
    /// ticket's batch has not drained, for an already-taken ticket, or for
    /// a ticket whose outcome the retention cap dropped.
    ///
    /// Outcomes are retained until taken, up to
    /// [`ServiceConfig::max_unredeemed`]: past the cap each drain drops
    /// the oldest unredeemed outcomes, so a fire-and-forget caller bounds
    /// the service's memory instead of leaking it. Redeem promptly (or use
    /// [`Service::query`], which always takes) to never hit the cap.
    pub fn take(&mut self, ticket: Ticket) -> Option<QueryOutcome> {
        self.ready.remove(&ticket.0)
    }

    /// Submit-and-complete convenience: drains immediately and returns the
    /// outcome.
    pub fn query(&mut self, graph: GraphId, query: Query) -> QueryOutcome {
        let ticket = self.submit(graph, query);
        self.drain_queue();
        self.take(ticket)
            .expect("drained batch resolves its tickets")
    }

    /// Queries waiting for the next drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Service-lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The graph registry.
    #[must_use]
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The warm clique pool.
    #[must_use]
    pub fn pool(&self) -> &CliquePool {
        &self.pool
    }

    /// Primed computations currently cached.
    #[must_use]
    pub fn cached_computations(&self) -> usize {
        self.cache.len()
    }

    /// Approximate bytes the cache holds right now (entry payloads plus
    /// keys and cost counters). Bounded by
    /// [`ServiceConfig::max_cache_bytes`] (and
    /// [`ServiceConfig::max_cached`] on entry count): each drain evicts the
    /// oldest primed computations past the caps.
    #[must_use]
    pub fn cache_bytes(&self) -> u64 {
        self.cache.approx_bytes()
    }

    /// Outcomes currently retained for unredeemed tickets.
    #[must_use]
    pub fn retained_outcomes(&self) -> usize {
        self.ready.len()
    }

    /// Approximate bytes those unredeemed outcomes hold (response payloads
    /// plus the per-outcome bookkeeping). Bounded by the retention cap —
    /// the regression tests pin that a submit-heavy, never-taking caller
    /// sees this plateau instead of grow.
    #[must_use]
    pub fn unredeemed_bytes(&self) -> u64 {
        let per_outcome = std::mem::size_of::<u64>() + std::mem::size_of::<QueryOutcome>();
        self.ready
            .values()
            .map(|o| per_outcome as u64 + o.response.approx_bytes())
            .sum()
    }

    /// Drops every cached computation (the warm pool is untouched). The
    /// next submission of each query re-primes it; useful for memory
    /// pressure and for benchmarks isolating pool warmth from caching.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The canonical cache key of a query against a registered graph.
    fn key_for(&self, graph: GraphId, query: Query) -> CacheKey {
        CacheKey {
            fingerprint: self.registry.fingerprint(graph),
            kind: query.compute_kind(),
            knobs: self.knobs,
        }
    }

    fn drain_queue(&mut self) -> usize {
        let submissions = std::mem::take(&mut self.queue);
        if submissions.is_empty() {
            return 0;
        }
        self.stats.batches += 1;
        let tel = cc_telemetry::global();
        // Observer-only: the clock is read only when summary tracing is on,
        // and every emission below happens after the batch's results are
        // already fixed.
        let drain_start = tel
            .enabled(cc_telemetry::TraceLevel::Summary)
            .then(std::time::Instant::now);

        // Seeded deterministic drain order: the queue is a permutation of
        // submission order, fixed by the batch seed — which submission of a
        // duplicate set primes the computation never depends on caller
        // timing.
        let mut order: Vec<usize> = (0..submissions.len()).collect();
        order.sort_by_key(|&i| (splitmix(self.cfg.batch_seed ^ i as u64), i));

        // Coalesce: walk the batch in drain order, creating one job per
        // missing cache key; later submissions of the same key (and all
        // submissions of already-primed keys) run nothing.
        let mut jobs: Vec<Job> = Vec::new();
        let mut job_of_key: BTreeMap<CacheKey, usize> = BTreeMap::new();
        for &i in &order {
            let sub = submissions[i];
            let key = self.key_for(sub.graph, sub.query);
            if self.cache.get(&key).is_some() {
                self.stats.cache_hits += 1;
                continue;
            }
            if job_of_key.contains_key(&key) {
                self.stats.coalesced += 1;
                continue;
            }
            job_of_key.insert(key, jobs.len());
            jobs.push(Job {
                key,
                graph: Arc::clone(self.registry.graph(sub.graph)),
                kind: key.kind,
            });
        }

        // Fan the coalesced jobs over warm pool instances on the shared
        // executor. Each slot owns its checked-out cliques (one per
        // distinct n it serves) behind an uncontended per-slot mutex; jobs
        // are assigned round-robin and merged back by job index, so the
        // outcome is independent of which thread ran which slot — each job
        // runs on its own reset instance, and reset instances replay fresh
        // ones bit-for-bit.
        if !jobs.is_empty() {
            let slots = self.cfg.mode.instances().clamp(1, jobs.len());
            let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); slots];
            for (j, _) in jobs.iter().enumerate() {
                assignments[j % slots].push(j);
            }
            let mut slot_cliques: Vec<BTreeMap<usize, Clique>> = Vec::with_capacity(slots);
            for mine in &assignments {
                let mut cliques = BTreeMap::new();
                for &j in mine {
                    let n = jobs[j].graph.n();
                    cliques.entry(n).or_insert_with(|| self.pool.checkout(n));
                }
                slot_cliques.push(cliques);
            }
            let girth_cfg = self.cfg.girth;
            let work: Vec<Mutex<Option<BTreeMap<usize, Clique>>>> = slot_cliques
                .into_iter()
                .map(|c| Mutex::new(Some(c)))
                .collect();
            // The slot map's pieces are few but each is an entire
            // algorithm run, so the executor's piece-count cutover (sized
            // for fine-grained node-local loops) is disabled for this one
            // dispatch; nested maps inside the algorithms keep the
            // configured cutover through their cliques' own handles.
            let exec = self.pool.executor().with_cutover_override(0);
            let jobs_ref = &jobs;
            let assignments_ref = &assignments;
            let slot_results: Vec<SlotOutput> = exec.map(slots, |slot| {
                let mut cliques = work[slot]
                    .lock()
                    .expect("slot mutex")
                    .take()
                    .expect("each slot taken once");
                let mut results = Vec::with_capacity(assignments_ref[slot].len());
                for &j in &assignments_ref[slot] {
                    let job = &jobs_ref[j];
                    let clique = cliques
                        .get_mut(&job.graph.n())
                        .expect("slot pre-checked-out this size");
                    results.push((j, run_computation(clique, &job.graph, job.kind, girth_cfg)));
                }
                (results, cliques)
            });
            for (results, cliques) in slot_results {
                for (j, primed) in results {
                    self.stats.computations += 1;
                    self.stats.simulated_rounds += primed.rounds;
                    self.stats.simulated_words += primed.words;
                    self.cache.insert(jobs[j].key, primed);
                }
                for (_, clique) in cliques {
                    self.pool.checkin(clique);
                }
            }
        }

        // Resolve every submission from the (now fully primed) cache. A
        // submission is "cached" when it ran no new simulation: everything
        // except each job's priming submission.
        let mut primer_spent: BTreeMap<CacheKey, bool> = BTreeMap::new();
        let done = submissions.len();
        for &i in &order {
            let sub = submissions[i];
            let key = self.key_for(sub.graph, sub.query);
            let primed = self.cache.get(&key).expect("batch primed every key");
            let cached = if job_of_key.contains_key(&key) {
                // First resolution of a freshly primed key in drain order
                // is the submission that paid for it.
                *primer_spent
                    .entry(key)
                    .and_modify(|spent| *spent = true)
                    .or_insert(false)
            } else {
                true
            };
            let response = match sub.query {
                Query::Distance { s, t } => {
                    let tables = primed
                        .response
                        .apsp()
                        .expect("distance queries prime APSP tables");
                    Response::Distance(tables.dist.row(s)[t])
                }
                _ => primed.response.clone(),
            };
            self.ready.insert(
                sub.ticket.0,
                QueryOutcome {
                    response,
                    rounds: primed.rounds,
                    words: primed.words,
                    cached,
                },
            );
        }

        self.enforce_outcome_cap();
        self.enforce_cache_cap();
        self.stats.cache_entries = self.cache.len() as u64;
        self.stats.cache_bytes = self.cache.approx_bytes();
        if let Some(start) = drain_start {
            self.emit_drain_gauges(done, start.elapsed().as_nanos() as u64);
        }
        done
    }

    /// Bounds the unredeemed-outcome map at
    /// [`ServiceConfig::max_unredeemed`] by dropping the oldest tickets'
    /// outcomes (lowest ticket numbers first — the entries a live caller is
    /// least likely to still redeem). Warns once per service lifetime and
    /// counts every drop, so a fire-and-forget workload is visible instead
    /// of a silent leak.
    fn enforce_outcome_cap(&mut self) {
        let cap = match self.cfg.max_unredeemed {
            0 => DEFAULT_MAX_UNREDEEMED,
            cap => cap,
        };
        if self.ready.len() <= cap {
            return;
        }
        let excess = self.ready.len() - cap;
        for _ in 0..excess {
            let oldest = *self.ready.keys().next().expect("map larger than cap");
            self.ready.remove(&oldest);
        }
        self.stats.outcomes_evicted += excess as u64;
        if !self.evict_warned {
            self.evict_warned = true;
            eprintln!(
                "cc-service: unredeemed-outcome cap ({cap}) reached; dropping the oldest \
                 tickets' outcomes (redeem with Service::take, or raise \
                 ServiceConfig::max_unredeemed; warned once)"
            );
        }
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Summary, || {
            cc_telemetry::Event::Counter {
                name: "service_outcomes_evicted",
                delta: excess as u64,
            }
        });
    }

    /// Bounds the result cache at [`ServiceConfig::max_cached`] entries and
    /// [`ServiceConfig::max_cache_bytes`] approximate bytes by evicting the
    /// oldest-primed computations (a deterministic order, fixed by the
    /// seeded drain). Runs **after** the batch's submissions resolve, so
    /// every key the batch primed serves its own batch before it can be
    /// dropped. Warns once per service lifetime and counts every drop in
    /// [`ServiceStats::results_evicted`].
    fn enforce_cache_cap(&mut self) {
        let max_entries = match self.cfg.max_cached {
            0 => DEFAULT_MAX_CACHED,
            cap => cap,
        };
        let max_bytes = match self.cfg.max_cache_bytes {
            0 => DEFAULT_MAX_CACHE_BYTES,
            cap => cap,
        };
        let evicted = self.cache.enforce(max_entries, max_bytes);
        if evicted == 0 {
            return;
        }
        self.stats.results_evicted += evicted;
        if !self.cache_evict_warned {
            self.cache_evict_warned = true;
            eprintln!(
                "cc-service: result-cache cap ({max_entries} entries / {max_bytes} bytes) \
                 reached; evicting the oldest primed computations (raise \
                 ServiceConfig::max_cached / max_cache_bytes to keep more replays free; \
                 warned once)"
            );
        }
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Summary, || {
            cc_telemetry::Event::Counter {
                name: "service_results_evicted",
                delta: evicted,
            }
        });
    }

    /// Emits the batch's service gauges at `CC_TRACE=summary` and above:
    /// cache occupancy, lifetime hit/coalescing ratios, warm-pool
    /// occupancy, and this drain's per-query latency.
    fn emit_drain_gauges(&self, drained: usize, drain_ns: u64) {
        let tel = cc_telemetry::global();
        let at = cc_telemetry::TraceLevel::Summary;
        let gauge = |name: &'static str, value: f64| {
            tel.emit(at, || cc_telemetry::Event::Gauge { name, value });
        };
        gauge("service_cache_entries", self.stats.cache_entries as f64);
        gauge("service_cache_bytes", self.stats.cache_bytes as f64);
        if self.stats.queries > 0 {
            gauge(
                "service_hit_rate",
                self.stats.cache_hits as f64 / self.stats.queries as f64,
            );
            gauge(
                "service_coalesce_ratio",
                self.stats.coalesced as f64 / self.stats.queries as f64,
            );
        }
        gauge("service_pool_built", self.pool.built() as f64);
        gauge("service_pool_reused", self.pool.reused() as f64);
        gauge("service_pool_idle", self.pool.idle_total() as f64);
        if drained > 0 {
            gauge(
                "service_batch_ns_per_query",
                drain_ns as f64 / drained as f64,
            );
        }
    }
}

/// Runs one computation on a reset pool instance, returning the answer and
/// the simulated cost.
fn run_computation(
    clique: &mut Clique,
    graph: &Graph,
    kind: ComputeKind,
    girth_cfg: GirthConfig,
) -> Primed {
    clique.reset();
    let response = match kind {
        ComputeKind::Triangles => Response::TriangleCount(count_triangles_auto(clique, graph)),
        ComputeKind::Apsp => Response::ApspTable(Arc::new(apsp_exact(clique, graph))),
        ComputeKind::Girth => Response::GirthBound(if graph.is_directed() {
            directed_girth(clique, graph)
        } else {
            girth(clique, graph, girth_cfg)
        }),
        ComputeKind::FourCycle => Response::SubgraphFlag(detect_4cycle(clique, graph)),
    };
    Primed {
        response,
        rounds: clique.rounds(),
        words: clique.stats().words(),
    }
}

/// SplitMix64 finaliser; the deterministic batch-order hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
