//! The seven reference workloads: seeded inputs, centralised oracle
//! answers, explicitly configured instances, and one timed operation each.
//!
//! Every configuration is built field by field. `Default` would consult the
//! `CC_*` environment, and a benchmark whose numbers depend on the caller's
//! shell is not a yardstick.

use congested_clique::algebra::{BoolSemiring, Dist, IntRing, Matrix, Semiring};
use congested_clique::apsp::apsp_seidel;
use congested_clique::clique::{
    Clique, CliqueConfig, Mode, NetsimConfig, NetsimProfile, RelayPolicy, TransportKind,
};
use congested_clique::core::RowMatrix;
use congested_clique::graph::{generators, oracle, Graph};
use congested_clique::netsim::DEFAULT_NETSIM_SEED;
use congested_clique::runtime::{ExecutorKind, DEFAULT_SEQ_CUTOVER};
use congested_clique::service::{
    GraphId, Query, Response, Service, ServiceConfig, ServiceMode, ServiceStats, Ticket,
};
use congested_clique::subgraph::{count_triangles, count_triangles_program, GirthConfig};
use std::time::{Duration, Instant};

/// Worker processes of the multi-process fabrics: one per core of the
/// 2-core reference host.
pub const WORKERS: usize = 2;
/// Operations run on a fresh instance before it is handed to the timed loop
/// (part of `setup_s`): enough for lazy paths, allocator pools and worker
/// connections to settle.
pub const WARMUP_OPS: usize = 2;

const TRI_N: usize = 128;
const TRI_P: f64 = 0.3;
const TRIPROG_N: usize = 64;
const SEIDEL_N: usize = 128;
const SEIDEL_P: f64 = 0.05;
/// Seidel recurses ⌈log₂(largest finite distance)⌉ times, so graphs are
/// drawn until that distance lands in one power-of-two class: 4 Boolean
/// squarings and 3 integer products on every seed.
const SEIDEL_ECC: std::ops::RangeInclusive<i64> = 5..=8;
const SERVICE_GRAPHS: usize = 8;
const SERVICE_N: usize = 64;
const SERVICE_P: f64 = 0.1;
const HOT_PAIRS_PER_GRAPH: usize = 64;
/// Queries in one `service-hot` operation: a triangle count and a distance
/// per pair.
pub const HOT_QUERIES: usize = SERVICE_GRAPHS * HOT_PAIRS_PER_GRAPH * 2;
const LOCAL_BLOCK: usize = 64;
/// Strassen's 7 terms, two levels deep: the block products one node set
/// performs in one fast MM at clique size 256.
const LOCAL_PRODUCTS: usize = 49;

/// SplitMix64: the benchmark's only source of randomness besides the
/// seeded graph generators.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// An independent seed for input stream `stream`, item `index`, of run
/// seed `seed`.
fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = SplitMix::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    rng.next() ^ SplitMix::new(index).next()
}

pub fn tri_graph(seed: u64) -> Graph {
    generators::gnp(TRI_N, TRI_P, sub_seed(seed, 1, 0))
}

pub fn triprog_graph(seed: u64) -> Graph {
    generators::gnp(TRIPROG_N, TRI_P, sub_seed(seed, 2, 0))
}

/// The Seidel input and its oracle distances.
pub fn seidel_graph(seed: u64) -> (Graph, Matrix<Dist>) {
    for attempt in 0.. {
        let g = generators::gnp(SEIDEL_N, SEIDEL_P, sub_seed(seed, 3, attempt));
        let dist = oracle::apsp(&g);
        let ecc = dist
            .iter_indexed()
            .filter_map(|(_, _, d)| d.value())
            .max()
            .unwrap_or(0);
        if SEIDEL_ECC.contains(&ecc) {
            return (g, dist);
        }
    }
    unreachable!("the attempt counter does not end")
}

pub fn service_graphs(seed: u64) -> Vec<Graph> {
    (0..SERVICE_GRAPHS as u64)
        .map(|i| generators::gnp(SERVICE_N, SERVICE_P, sub_seed(seed, 4, i)))
        .collect()
}

/// `Graph::fingerprint` of every graph workload `name` generates from
/// `seed`, and an FNV digest of the `local-mm` operands: what a result file
/// records so two runs can show they measured the same inputs.
pub fn input_fingerprints(name: &str, seed: u64) -> Vec<u64> {
    match name {
        "tri-inmem" | "tri-socket" => vec![tri_graph(seed).fingerprint()],
        "triprog-tcp-peer" => vec![triprog_graph(seed).fingerprint()],
        "seidel-inmem" => vec![seidel_graph(seed).0.fingerprint()],
        "service-batch" | "service-hot" => service_graphs(seed)
            .iter()
            .map(Graph::fingerprint)
            .collect(),
        "local-mm" => {
            let ops = LocalOperands::generate(seed);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
            for (a, b) in &ops.ints {
                a.iter_indexed().for_each(|(_, _, &x)| mix(x as u64));
                b.iter_indexed().for_each(|(_, _, &x)| mix(x as u64));
            }
            for (a, b) in &ops.bools {
                a.iter_indexed().for_each(|(_, _, &x)| mix(u64::from(x)));
                b.iter_indexed().for_each(|(_, _, &x)| mix(u64::from(x)));
            }
            vec![h]
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// The one clique configuration every workload uses, up to the fabric.
pub fn clique_config(transport: TransportKind) -> CliqueConfig {
    CliqueConfig {
        mode: Mode::Unicast,
        route_seed: 0x5eed_c11e,
        record_patterns: false,
        relay_policy: RelayPolicy::TwoChoice,
        executor: ExecutorKind::Sequential,
        exec_cutover: Some(DEFAULT_SEQ_CUTOVER),
        transport,
        netsim: NetsimConfig {
            profile: NetsimProfile::Off,
            seed: DEFAULT_NETSIM_SEED,
        },
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        clique: clique_config(TransportKind::InMemory),
        mode: ServiceMode::Batch { instances: 2 },
        batch_seed: 0x5e71_1ce5,
        girth: GirthConfig {
            ell: 9,
            trials: 100,
            seed: 0xc1c1e,
        },
        max_unredeemed: 1024,
        max_cached: 4096,
        max_cache_bytes: 64 * 1024 * 1024,
    }
}

pub const SOCKET: TransportKind = TransportKind::Socket { workers: WORKERS };
pub const TCP_STAR: TransportKind = TransportKind::Tcp {
    workers: WORKERS,
    resident: false,
    addr: None,
};
pub const TCP_PEER: TransportKind = TransportKind::Tcp {
    workers: WORKERS,
    resident: true,
    addr: None,
};

/// The fabric workload `name` runs on (`None`: it builds no clique).
pub fn fabric(name: &str) -> Option<TransportKind> {
    match name {
        "tri-socket" => Some(SOCKET),
        "triprog-tcp-peer" => Some(TCP_PEER),
        "local-mm" => None,
        _ => Some(TransportKind::InMemory),
    }
}

/// What one operation did. The span is the operation as a caller sees it;
/// the oracle check happens after it.
pub struct OpResult {
    pub span: Duration,
    pub correct: bool,
    /// Simulated rounds and words this operation charged.
    pub rounds: u64,
    pub words: u64,
}

/// Lifetime counters of an instance; the traced pass differences them
/// across its window.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub epochs: Option<u64>,
    pub orch_bytes: u64,
    pub service: Option<ServiceStats>,
    pub pool_built: u64,
    pub pool_reused: u64,
}

/// A warm, pre-built instance of one workload.
pub trait Instance {
    /// Runs one operation: `Clique::reset()` plus the query (or the
    /// service batch) inside the span, the oracle check after it.
    fn op(&mut self) -> OpResult;
    fn counters(&self) -> Counters;
}

/// Generates `name`'s inputs from `seed`, computes the oracle answers,
/// builds the fabric or service and runs the warm-up operations: everything
/// `setup_s` covers. `in_memory` swaps a multi-process fabric for the
/// in-memory one (same inputs, same query) — the traced pass uses that to
/// price the wire.
pub fn build(name: &str, seed: u64, in_memory: bool) -> Box<dyn Instance> {
    let transport = match fabric(name) {
        Some(kind) if !in_memory => kind,
        _ => TransportKind::InMemory,
    };
    let mut instance: Box<dyn Instance> = match name {
        "tri-inmem" | "tri-socket" => {
            let g = tri_graph(seed);
            let expected = Expected::Count(oracle::count_triangles(&g));
            Box::new(CliqueInstance::new(g, expected, transport, |c, g| {
                Raw::Count(count_triangles(c, g))
            }))
        }
        "triprog-tcp-peer" => {
            let g = triprog_graph(seed);
            let expected = Expected::Count(oracle::count_triangles(&g));
            Box::new(CliqueInstance::new(g, expected, transport, |c, g| {
                Raw::Count(count_triangles_program(c, g))
            }))
        }
        "seidel-inmem" => {
            let (g, dist) = seidel_graph(seed);
            let expected = Expected::Dist(dist);
            Box::new(CliqueInstance::new(g, expected, transport, |c, g| {
                Raw::Rows(apsp_seidel(c, g))
            }))
        }
        "service-batch" => Box::new(ServiceInstance::batch(seed)),
        "service-hot" => Box::new(ServiceInstance::hot(seed)),
        "local-mm" => Box::new(LocalMm::new(seed)),
        other => panic!("unknown workload {other:?}"),
    };
    for _ in 0..WARMUP_OPS {
        instance.op();
    }
    instance
}

/// A query's result as the algorithm returns it (no conversion inside the
/// timed span).
enum Raw {
    Count(u64),
    Rows(RowMatrix<Dist>),
}

enum Expected {
    Count(u64),
    Dist(Matrix<Dist>),
}

impl Expected {
    fn matches(&self, raw: &Raw) -> bool {
        match (self, raw) {
            (Expected::Count(want), Raw::Count(got)) => want == got,
            (Expected::Dist(want), Raw::Rows(got)) => *want == got.to_matrix(),
            _ => false,
        }
    }
}

type CliqueQuery = fn(&mut Clique, &Graph) -> Raw;

struct CliqueInstance {
    clique: Clique,
    graph: Graph,
    expected: Expected,
    query: CliqueQuery,
    /// Rounds and words of the same query on a fresh in-memory clique: the
    /// model costs do not depend on the fabric or on instance reuse, so
    /// every operation must reproduce them.
    model: (u64, u64),
}

impl CliqueInstance {
    fn new(graph: Graph, expected: Expected, transport: TransportKind, query: CliqueQuery) -> Self {
        let mut reference = Clique::with_config(graph.n(), clique_config(TransportKind::InMemory));
        query(&mut reference, &graph);
        let model = (reference.rounds(), reference.stats().words());
        Self {
            clique: Clique::with_config(graph.n(), clique_config(transport)),
            graph,
            expected,
            query,
            model,
        }
    }
}

impl Instance for CliqueInstance {
    fn op(&mut self) -> OpResult {
        let start = Instant::now();
        self.clique.reset();
        let raw = (self.query)(&mut self.clique, &self.graph);
        let span = start.elapsed();
        let (rounds, words) = (self.clique.rounds(), self.clique.stats().words());
        OpResult {
            span,
            correct: self.expected.matches(&raw) && (rounds, words) == self.model,
            rounds,
            words,
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            epochs: Some(self.clique.transport_epochs()),
            orch_bytes: self.clique.orchestrator_bytes(),
            ..Counters::default()
        }
    }
}

struct ServiceInstance {
    service: Service,
    /// One operation's submissions with their oracle answers.
    plan: Vec<(GraphId, Query, Response)>,
    /// `service-batch` drops the cache at the start of every operation;
    /// `service-hot` must be served from it entirely.
    clear_cache: bool,
    /// Model costs of the first operation; every later one must match.
    model: Option<(u64, u64)>,
    tickets: Vec<Ticket>,
}

impl ServiceInstance {
    fn registered(seed: u64) -> (Service, Vec<(GraphId, Graph)>) {
        let mut service = Service::new(service_config());
        let graphs = service_graphs(seed)
            .into_iter()
            .map(|g| (service.register(g.clone()), g))
            .collect();
        (service, graphs)
    }

    fn batch(seed: u64) -> Self {
        let (service, graphs) = Self::registered(seed);
        let mut plan = Vec::new();
        for (id, g) in &graphs {
            let dist = oracle::apsp(g);
            let answers = [
                (
                    Query::TriangleCount,
                    Response::TriangleCount(oracle::count_triangles(g)),
                ),
                (
                    Query::SubgraphFlag,
                    Response::SubgraphFlag(oracle::has_k_cycle(g, 4)),
                ),
                (Query::GirthBound, Response::GirthBound(oracle::girth(g))),
                (
                    Query::Distance { s: 0, t: 5 },
                    Response::Distance(dist.row(0)[5]),
                ),
            ];
            // Every submission is made twice: the second of each pair must
            // coalesce onto the first, not compute again.
            for (query, response) in answers {
                plan.push((*id, query, response.clone()));
                plan.push((*id, query, response));
            }
        }
        Self::with_plan(service, plan, true)
    }

    fn hot(seed: u64) -> Self {
        let (mut service, graphs) = Self::registered(seed);
        let mut rng = SplitMix::new(sub_seed(seed, 5, 0));
        let mut plan = Vec::new();
        for (id, g) in &graphs {
            let triangles = Response::TriangleCount(oracle::count_triangles(g));
            let dist = oracle::apsp(g);
            for _ in 0..HOT_PAIRS_PER_GRAPH {
                let (s, t) = (rng.below(g.n()), rng.below(g.n()));
                plan.push((*id, Query::TriangleCount, triangles.clone()));
                plan.push((
                    *id,
                    Query::Distance { s, t },
                    Response::Distance(dist.row(s)[t]),
                ));
            }
            // Prime the two computations the plan reads.
            for query in [Query::TriangleCount, Query::ApspTable] {
                let ticket = service.submit(*id, query);
                service.drain();
                service.take(ticket).expect("priming query completes");
            }
        }
        Self::with_plan(service, plan, false)
    }

    fn with_plan(
        service: Service,
        plan: Vec<(GraphId, Query, Response)>,
        clear_cache: bool,
    ) -> Self {
        let tickets = Vec::with_capacity(plan.len());
        Self {
            service,
            plan,
            clear_cache,
            model: None,
            tickets,
        }
    }
}

impl Instance for ServiceInstance {
    fn op(&mut self) -> OpResult {
        let before = self.service.stats();
        self.tickets.clear();
        let start = Instant::now();
        if self.clear_cache {
            self.service.clear_cache();
        }
        for (id, query, _) in &self.plan {
            self.tickets.push(self.service.submit(*id, *query));
        }
        self.service.drain();
        let outcomes: Vec<_> = self
            .tickets
            .iter()
            .map(|&ticket| self.service.take(ticket))
            .collect();
        let span = start.elapsed();

        let after = self.service.stats();
        let rounds = after.simulated_rounds - before.simulated_rounds;
        let words = after.simulated_words - before.simulated_words;
        let model = *self.model.get_or_insert((rounds, words));
        let answers_match = outcomes
            .iter()
            .zip(&self.plan)
            .all(|(outcome, (_, _, want))| {
                outcome.as_ref().is_some_and(|o| {
                    // A hot operation must never compute.
                    o.response == *want && (self.clear_cache || o.cached)
                })
            });
        OpResult {
            span,
            correct: answers_match && (rounds, words) == model,
            rounds,
            words,
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            service: Some(self.service.stats()),
            pool_built: self.service.pool().built(),
            pool_reused: self.service.pool().reused(),
            ..Counters::default()
        }
    }
}

/// The `local-mm` operands: dense, seeded, small entries so products stay
/// far from overflow.
pub struct LocalOperands {
    pub ints: Vec<(Matrix<i64>, Matrix<i64>)>,
    pub bools: Vec<(Matrix<bool>, Matrix<bool>)>,
}

impl LocalOperands {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix::new(sub_seed(seed, 6, 0));
        let b = LOCAL_BLOCK;
        let int = |rng: &mut SplitMix| Matrix::from_fn(b, b, |_, _| rng.below(17) as i64 - 8);
        let ints = (0..LOCAL_PRODUCTS)
            .map(|_| (int(&mut rng), int(&mut rng)))
            .collect();
        let boolean = |rng: &mut SplitMix| Matrix::from_fn(b, b, |_, _| rng.next() & 1 == 1);
        let bools = (0..LOCAL_PRODUCTS)
            .map(|_| (boolean(&mut rng), boolean(&mut rng)))
            .collect();
        Self { ints, bools }
    }
}

struct LocalMm {
    operands: LocalOperands,
    /// Schoolbook products (`Matrix::mul`, no kernel dispatch): the oracle.
    expected_ints: Vec<Matrix<i64>>,
    expected_bools: Vec<Matrix<bool>>,
}

impl LocalMm {
    fn new(seed: u64) -> Self {
        let operands = LocalOperands::generate(seed);
        let expected_ints = operands
            .ints
            .iter()
            .map(|(a, b)| Matrix::mul(&IntRing, a, b))
            .collect();
        let expected_bools = operands
            .bools
            .iter()
            .map(|(a, b)| Matrix::mul(&BoolSemiring, a, b))
            .collect();
        Self {
            operands,
            expected_ints,
            expected_bools,
        }
    }
}

impl Instance for LocalMm {
    fn op(&mut self) -> OpResult {
        let start = Instant::now();
        let ints: Vec<_> = self
            .operands
            .ints
            .iter()
            .map(|(a, b)| IntRing.mul_dense(a, b))
            .collect();
        let bools: Vec<_> = self
            .operands
            .bools
            .iter()
            .map(|(a, b)| BoolSemiring.mul_dense(a, b))
            .collect();
        let span = start.elapsed();
        OpResult {
            span,
            correct: ints == self.expected_ints && bools == self.expected_bools,
            rounds: 0,
            words: 0,
        }
    }

    fn counters(&self) -> Counters {
        Counters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = input_fingerprints(w.name, 1);
            assert_eq!(a, input_fingerprints(w.name, 1), "{}: seed 1 twice", w.name);
            let b = input_fingerprints(w.name, 2);
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x != y),
                "{}: seeds 1 and 2 must give different inputs",
                w.name
            );
        }
    }

    #[test]
    fn seidel_inputs_pin_the_recursion_depth() {
        for seed in 1..=4 {
            let (_, dist) = seidel_graph(seed);
            let ecc = dist
                .iter_indexed()
                .filter_map(|(_, _, d)| d.value())
                .max()
                .unwrap();
            assert!(SEIDEL_ECC.contains(&ecc), "seed {seed}: eccentricity {ecc}");
        }
    }

    #[test]
    fn service_plans_have_the_stated_shape() {
        let batch = ServiceInstance::batch(1);
        assert_eq!(batch.plan.len(), 64, "8 graphs x 4 queries x 2");
        let hot = ServiceInstance::hot(1);
        assert_eq!(hot.plan.len(), HOT_QUERIES);
        assert_eq!(HOT_QUERIES, 1024, "8 graphs x 64 pairs x 2");
        assert!(hot.plan.len() <= service_config().max_unredeemed);
    }
}
