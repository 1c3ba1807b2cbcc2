//! Engine-level determinism: for randomized per-node traffic, the parallel
//! executor must produce inboxes, program outputs, round counts, and load
//! traces bit-identical to sequential execution.

use cc_runtime::{Control, Engine, Executor, ExecutorKind, NodeProgram, RoundCtx, Word};
use proptest::prelude::*;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sends a pseudo-random pattern (unicasts of varying sizes, occasional
/// broadcasts, occasional self-messages) for `k` rounds while logging every
/// delivery it observes.
struct RandomTraffic {
    seed: u64,
    k: u64,
    /// `(round, src, words)` for every non-empty delivery, in scan order.
    log: Vec<(u64, usize, Vec<Word>)>,
}

impl NodeProgram for RandomTraffic {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
        let me = ctx.node();
        let n = ctx.n();
        for src in 0..n {
            let unicast = ctx.received(src).to_vec();
            if !unicast.is_empty() {
                self.log.push((ctx.round(), src, unicast));
            }
            for slab in ctx.broadcasts_from(src) {
                self.log.push((ctx.round(), src, slab.to_vec()));
            }
        }
        if ctx.round() >= self.k {
            return Control::Halt;
        }
        let h = splitmix(self.seed ^ ((me as u64) << 32) ^ ctx.round());
        // Up to three unicasts (possibly to self), sized 0..8 words.
        for shot in 0..(h % 4) {
            let hh = splitmix(h ^ shot);
            let dst = (hh % n as u64) as usize;
            let len = (hh >> 8) % 8;
            let words: Vec<Word> = (0..len).map(|j| hh ^ j).collect();
            ctx.send(dst, words);
        }
        // Occasional broadcast.
        if h.is_multiple_of(5) {
            let len = 1 + (h >> 16) % 4;
            ctx.broadcast((0..len).map(|j| h ^ (j << 7)).collect::<Vec<Word>>());
        }
        Control::Continue
    }
}

/// Per-node delivery logs, link rounds, words, and the per-round load trace.
type RunOutcome = (
    Vec<Vec<(u64, usize, Vec<Word>)>>,
    u64,
    u64,
    Vec<Vec<(usize, usize, usize)>>,
);

fn run(kind: ExecutorKind, n: usize, k: u64, seed: u64) -> RunOutcome {
    let programs = (0..n)
        .map(|v| RandomTraffic {
            seed: seed ^ (v as u64).wrapping_mul(0x9e37),
            k,
            log: Vec::new(),
        })
        .collect();
    let mut trace = Vec::new();
    // Cutover disabled so the small property sizes genuinely dispatch to
    // the parallel backends instead of falling back inline.
    let engine = Engine::with_executor(Executor::with_cutover(kind, 2));
    let report = engine.run_traced(programs, |loads| {
        trace.push(loads.iter().collect::<Vec<_>>())
    });
    (
        report.programs.into_iter().map(|p| p.log).collect(),
        report.rounds,
        report.words,
        trace,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_backends_are_bit_identical_to_sequential(
        n in 2usize..24,
        k in 1u64..8,
        seed in 0u64..1_000_000,
        threads in 2usize..9,
    ) {
        let seq = run(ExecutorKind::Sequential, n, k, seed);
        let par = run(ExecutorKind::Parallel { threads }, n, k, seed);
        prop_assert_eq!(&seq.0, &par.0, "delivered inboxes must match");
        prop_assert_eq!(seq.1, par.1, "round counts must match");
        prop_assert_eq!(seq.2, par.2, "word counts must match");
        prop_assert_eq!(&seq.3, &par.3, "per-round load traces must match");
    }
}

#[test]
fn pooled_engine_never_spawns_per_round() {
    // Acceptance criterion: worker threads are created at most once per
    // executor lifetime. Build the pool, then drive many engine runs and
    // assert this executor's (race-free, per-instance) spawn probe stays
    // at the construction-time count.
    let exec = Executor::with_cutover(ExecutorKind::Parallel { threads: 4 }, 2);
    let engine = Engine::with_executor(exec);
    assert_eq!(engine.executor().threads_spawned(), 3);
    for seed in 0..10 {
        let programs = (0..16)
            .map(|v| RandomTraffic {
                seed: seed ^ (v as u64).wrapping_mul(0x9e37),
                k: 4,
                log: Vec::new(),
            })
            .collect::<Vec<_>>();
        let report = engine.run(programs);
        assert!(report.engine_rounds > 0);
    }
    assert_eq!(
        engine.executor().threads_spawned(),
        3,
        "pooled engine runs must not spawn any threads"
    );
}

#[test]
fn traffic_actually_flows() {
    // Guard against the property passing vacuously.
    let (logs, rounds, words, _) = run(ExecutorKind::Sequential, 12, 5, 42);
    assert!(rounds > 0);
    assert!(words > 0);
    assert!(logs.iter().any(|l| !l.is_empty()));
}
