//! The untraced side of a traced run: a child process with telemetry off
//! that times calls into each crate's public functions (the probes), and
//! re-runs the workload briefly so traced numbers have an untraced base.
//!
//! It is a separate process because the telemetry handle is process-global
//! and first-install-wins: a process that traced cannot stop tracing, and a
//! probe timed under `CC_TRACE=full` mostly times the sink.

use crate::harness::{measure, warm_up};
use crate::stats::median;
use crate::workloads::{
    self, clique_config, service_config, service_graphs, tri_graph, SOCKET, TCP_PEER, TCP_STAR,
};
use congested_clique::algebra::{BitMatrix, BoolSemiring, IntRing, Matrix, Semiring};
use congested_clique::apsp::apsp_exact;
use congested_clique::clique::{Clique, NetsimConfig, NetsimProfile, TransportKind};
use congested_clique::graph::{generators, oracle};
use congested_clique::netsim::DEFAULT_NETSIM_SEED;
use congested_clique::runtime::{
    Control, Engine, Executor, ExecutorKind, NodeProgram, RoundCtx, DEFAULT_SEQ_CUTOVER,
};
use congested_clique::service::{Query, Service};
use congested_clique::subgraph::{count_triangles_auto, detect_4cycle, girth};
use congested_clique::transport::Frame;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clique size of the clique, transport, runtime and netsim probes: the
/// size of the `tri-*` and `seidel-inmem` workloads.
const N: usize = 128;
const BUDGET: Duration = Duration::from_millis(25);
const MIN_ITERS: usize = 5;
const MAX_ITERS: usize = 2000;

/// Median wall-clock of one call of `f`, in microseconds: two warm-up
/// calls, then calls until both [`MIN_ITERS`] and [`BUDGET`] are reached.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_ITERS || (start.elapsed() < BUDGET && samples.len() < MAX_ITERS) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// [`time_us`] for calls too short to time one by one: `batch` calls per
/// sample, reported per call.
fn time_us_batched(batch: usize, mut f: impl FnMut()) -> f64 {
    time_us(|| {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

fn int_matrix(n: usize, salt: u64) -> Matrix<i64> {
    let mut rng = workloads::SplitMix::new(salt);
    Matrix::from_fn(n, n, |_, _| rng.below(17) as i64 - 8)
}

fn bool_matrix(n: usize, salt: u64) -> Matrix<bool> {
    let mut rng = workloads::SplitMix::new(salt);
    Matrix::from_fn(n, n, |_, _| rng.next() & 1 == 1)
}

/// Wall-clock of one dispatched kernel product of the given operation and
/// size, in microseconds — the price list `algebra.kernel_share` multiplies
/// the traced call counts with.
pub fn kernel_us(op: &str, n: usize) -> f64 {
    match op {
        "mul_bool" => {
            let (a, b) = (bool_matrix(n, 1), bool_matrix(n, 2));
            time_us(|| {
                black_box(BoolSemiring.mul_dense(black_box(&a), black_box(&b)));
            })
        }
        _ => {
            let (a, b) = (int_matrix(n, 1), int_matrix(n, 2));
            time_us(|| {
                black_box(IntRing.mul_dense(black_box(&a), black_box(&b)));
            })
        }
    }
}

fn all_to_all(n: usize, v: usize, words: usize) -> Vec<(usize, Vec<u64>)> {
    (0..n)
        .filter(|&u| u != v)
        .map(|u| (u, vec![v as u64; words]))
        .collect()
}

fn in_memory_clique(n: usize) -> Clique {
    Clique::with_config(n, clique_config(TransportKind::InMemory))
}

/// One all-to-all `exchange` of `words` words per link, per round barrier.
fn exchange_round_us(clique: &mut Clique, words: usize) -> f64 {
    let n = clique.n();
    time_us(|| {
        clique.reset();
        black_box(clique.exchange(|v| all_to_all(n, v, words)));
    })
}

/// One all-to-all round straight on a transport: `send` on every link, then
/// `finish_round`.
fn transport_round_us(kind: TransportKind, words: usize, exec: &Executor) -> f64 {
    let mut transport = kind.build(N, exec.clone());
    let payload = vec![7u64; words];
    time_us(|| {
        for src in 0..N {
            for dst in (0..N).filter(|&d| d != src) {
                transport.send(src, dst, &payload);
            }
        }
        black_box(transport.finish_round());
    })
}

/// Worker spawn plus handshake of a multi-process fabric, in milliseconds
/// (median of three builds; teardown is outside the timing).
fn transport_setup_ms(kind: TransportKind, exec: &Executor) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let transport = kind.build(N, exec.clone());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(transport);
            ms
        })
        .collect();
    median(&samples)
}

/// A ring ping: every node sends one word to its successor for a fixed
/// number of rounds. Nothing but the engine's stepping and barrier.
struct Ping {
    rounds_left: u32,
}

const PING_ROUNDS: u32 = 32;

impl NodeProgram for Ping {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
        if self.rounds_left == 0 {
            return Control::Halt;
        }
        self.rounds_left -= 1;
        let next = (ctx.node() + 1) % ctx.n();
        ctx.send(next, vec![ctx.round()]);
        Control::Continue
    }
}

/// The four computations underneath `service-batch`, each timed on one warm
/// in-memory clique and averaged over the batch's graphs.
fn service_computations(seed: u64, out: &mut BTreeMap<String, f64>) {
    let graphs = service_graphs(seed);
    let cfg = service_config();
    let mut clique = in_memory_clique(graphs[0].n());
    let mut totals = [0.0f64; 4];
    for g in &graphs {
        let mut timed = |slot: usize, f: &mut dyn FnMut(&mut Clique)| {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    clique.reset();
                    f(&mut clique);
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            totals[slot] += median(&samples);
        };
        timed(0, &mut |c| {
            black_box(count_triangles_auto(c, g));
        });
        timed(1, &mut |c| {
            black_box(detect_4cycle(c, g));
        });
        timed(2, &mut |c| {
            black_box(girth(c, g, cfg.girth));
        });
        timed(3, &mut |c| {
            black_box(apsp_exact(c, g));
        });
    }
    let names = [
        "subgraph.triangles_auto_ms",
        "subgraph.detect_4cycle_ms",
        "subgraph.girth_ms",
        "apsp.exact_ms",
    ];
    for (name, total) in names.iter().zip(totals) {
        out.insert((*name).to_string(), total / graphs.len() as f64);
    }
}

/// Every workload-independent probe, by metric name.
pub fn probes(seed: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let sequential = Executor::with_cutover(ExecutorKind::Sequential, DEFAULT_SEQ_CUTOVER);

    // cc-algebra: the dispatched kernels at the block shapes production
    // uses (16..64) and at the shapes BENCH_kernel.json was tuned on.
    for n in [16, 32, 64, 256] {
        out.insert(format!("algebra.mul_i64_us.b{n}"), kernel_us("mul_i64", n));
    }
    for n in [64, 256, 512] {
        out.insert(
            format!("algebra.mul_bool_us.b{n}"),
            kernel_us("mul_bool", n),
        );
    }
    {
        let (a, b) = (bool_matrix(512, 1), bool_matrix(512, 2));
        let (pa, pb) = (BitMatrix::from_matrix(&a), BitMatrix::from_matrix(&b));
        out.insert(
            "algebra.bitmatrix_mul_us.b512".into(),
            time_us(|| {
                black_box(black_box(&pa).multiply(black_box(&pb)));
            }),
        );
        out.insert(
            "algebra.bit_pack_unpack_us.b512".into(),
            time_us(|| {
                black_box(BitMatrix::from_matrix(black_box(&a)).to_matrix());
            }),
        );
    }

    // cc-clique, in memory at n = 128.
    {
        let mut clique = in_memory_clique(N);
        let w1 = exchange_round_us(&mut clique, 1);
        out.insert("clique.exchange_round_us.w1".into(), w1);
        out.insert(
            "clique.exchange_round_us.w64".into(),
            exchange_round_us(&mut clique, 64),
        );
        out.insert(
            "clique.route_us.n128".into(),
            time_us(|| {
                clique.reset();
                black_box(clique.route(|v| all_to_all(N, v, 1)));
            }),
        );
        // Reset of a clique that carries a run's accounting (a phase, its
        // rounds), which is what a warm-pool checkout resets.
        let resets: Vec<f64> = (0..200)
            .map(|_| {
                clique.phase("probe", |c| c.broadcast(|v| v as u64));
                let t = Instant::now();
                clique.reset();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.insert("clique.reset_us".into(), median(&resets));

        // cc-netsim: the same exchange under a condition profile, minus
        // the unconditioned one. The two are timed in alternation and the
        // median of the paired differences is kept: the overhead is a small
        // share of the round, smaller than the drift between two separate
        // timings.
        for (name, profile) in [("lan", NetsimProfile::Lan), ("lossy", NetsimProfile::Lossy)] {
            let mut cfg = clique_config(TransportKind::InMemory);
            cfg.netsim = NetsimConfig {
                profile,
                seed: DEFAULT_NETSIM_SEED,
            };
            let mut conditioned = Clique::with_config(N, cfg);
            let once = |c: &mut Clique| {
                let t = Instant::now();
                c.reset();
                black_box(c.exchange(|v| all_to_all(N, v, 1)));
                t.elapsed().as_secs_f64() * 1e6
            };
            let differences: Vec<f64> = (0..15)
                .map(|_| {
                    let base = once(&mut clique);
                    once(&mut conditioned) - base
                })
                .collect();
            out.insert(
                format!("netsim.round_overhead_us.{name}"),
                median(&differences),
            );
        }
    }

    // cc-transport: the codec on the smallest and a large message, then one
    // round on each fabric, then what building a fabric costs.
    for words in [8usize, 4096] {
        let frame = Frame::Payload {
            epoch: 3,
            src: 1,
            dst: 2,
            words: vec![0x0123_4567_89ab_cdef; words],
        };
        let bytes = frame.encode();
        out.insert(
            format!("transport.encode_ns_per_word.w{words}"),
            time_us_batched(64, || {
                black_box(black_box(&frame).encode());
            }) * 1e3
                / words as f64,
        );
        out.insert(
            format!("transport.decode_ns_per_word.w{words}"),
            time_us_batched(64, || {
                black_box(Frame::decode(black_box(&bytes)).expect("own encoding decodes"));
            }) * 1e3
                / words as f64,
        );
    }
    for (name, kind) in [
        ("inmemory", TransportKind::InMemory),
        ("socket", SOCKET),
        ("tcp", TCP_STAR),
    ] {
        for words in [1, 64] {
            out.insert(
                format!("transport.round_us.{name}.w{words}"),
                transport_round_us(kind, words, &sequential),
            );
        }
    }
    for (name, kind) in [
        ("socket", SOCKET),
        ("tcp", TCP_STAR),
        ("tcp-peer", TCP_PEER),
    ] {
        out.insert(
            format!("transport.setup_ms.{name}"),
            transport_setup_ms(kind, &sequential),
        );
    }

    // cc-runtime.
    out.insert(
        "runtime.map_us.sequential".into(),
        time_us(|| {
            black_box(sequential.map(N, |i| i * 2));
        }),
    );
    {
        // Cutover 0: the 128 trivial pieces really are dispatched.
        let pooled = Executor::with_cutover(ExecutorKind::Parallel { threads: 2 }, 0);
        out.insert(
            "runtime.map_us.parallel2".into(),
            time_us(|| {
                black_box(pooled.map(N, |i| i * 2));
            }),
        );
    }
    {
        let engine = Engine::with_executor(sequential.clone());
        out.insert(
            "runtime.engine_round_us".into(),
            time_us(|| {
                let programs = (0..N)
                    .map(|_| Ping {
                        rounds_left: PING_ROUNDS,
                    })
                    .collect();
                black_box(engine.run::<Ping>(programs));
            }) / f64::from(PING_ROUNDS),
        );
    }

    // cc-subgraph, cc-apsp and cc-service.
    service_computations(seed, &mut out);
    {
        let graphs = service_graphs(seed);
        let mut service = Service::new(service_config());
        let mut ids = Vec::new();
        let register: Vec<f64> = graphs
            .into_iter()
            .map(|g| {
                let t = Instant::now();
                ids.push(service.register(g));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.insert("service.register_us".into(), median(&register));
        const SUBMITS: usize = 1024;
        let t = Instant::now();
        let tickets: Vec<_> = (0..SUBMITS)
            .map(|i| service.submit(ids[i % ids.len()], Query::TriangleCount))
            .collect();
        out.insert(
            "service.submit_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / SUBMITS as f64,
        );
        service.drain();
        for ticket in tickets {
            service.take(ticket).expect("drained ticket resolves");
        }
    }

    // cc-graph, at the tri-* shape.
    {
        let g = tri_graph(seed);
        out.insert(
            "graph.gen_ms".into(),
            time_us(|| {
                black_box(generators::gnp(g.n(), 0.3, black_box(seed)));
            }) / 1e3,
        );
        out.insert(
            "graph.fingerprint_us".into(),
            time_us(|| {
                black_box(black_box(&g).fingerprint());
            }),
        );
        out.insert(
            "graph.oracle_ms".into(),
            time_us(|| {
                black_box(oracle::count_triangles(&g));
                black_box(oracle::apsp(&g));
            }) / 1e3,
        );
    }

    // cc-telemetry: an emit site with tracing off.
    {
        let tel = congested_clique::telemetry::global();
        out.insert(
            "telemetry.emit_off_ns".into(),
            time_us_batched(100_000, || {
                black_box(tel).emit(congested_clique::telemetry::TraceLevel::Summary, || {
                    congested_clique::telemetry::Event::Counter {
                        name: "never",
                        delta: 1,
                    }
                });
            }) * 1e3,
        );
    }
    out
}

/// `op_ms_p50` of a short untraced window of the workload, and of the same
/// operation on the in-memory fabric (the same number for workloads that
/// already run in memory or use no fabric).
pub fn untraced_base(name: &str, seed: u64, window: Duration) -> (f64, f64) {
    let untraced = {
        let mut instance = workloads::build(name, seed, false);
        warm_up(instance.as_mut());
        measure(instance.as_mut(), window, &mut || {}).op_ms_p50()
    };
    let multi_process = !matches!(
        workloads::fabric(name),
        None | Some(TransportKind::InMemory)
    );
    let in_memory = if multi_process {
        let mut instance = workloads::build(name, seed, true);
        measure(instance.as_mut(), window / 2, &mut || {}).op_ms_p50()
    } else {
        untraced
    };
    (untraced, in_memory)
}
