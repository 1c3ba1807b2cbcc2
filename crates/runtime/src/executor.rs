//! Pluggable execution backends.

use crate::pool::WorkerPool;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Below this many independent pieces a parallel executor runs the job
/// inline on the calling thread: dispatch (even to a parked pool) costs a
/// condvar round-trip, which `BENCH_runtime.json` shows dominating small
/// workloads — at `n = 64` the overhead outweighs the work. Tunable per
/// executor with [`Executor::with_cutover`] (a clique's
/// `CliqueConfig::exec_cutover`); otherwise the parallel kinds self-tune
/// their default upward from this floor with a startup micro-probe (see
/// [`Executor::new`]). The determinism sweep (`tests/runtime_determinism.rs`)
/// pins the cutover to 2 so its small sizes really dispatch.
pub const DEFAULT_SEQ_CUTOVER: usize = 96;

/// Which backend an [`Executor`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Run everything on the calling thread, in index order. The reference
    /// semantics every other backend must reproduce bit-for-bit.
    #[default]
    Sequential,
    /// Fan independent per-index work out over a **persistent worker pool**
    /// built once in [`Executor::new`] (workers park between calls) and
    /// merge results at a deterministic barrier. The default parallel
    /// backend.
    Parallel {
        /// Worker thread count; `0` means "one per available CPU".
        threads: usize,
    },
}

impl ExecutorKind {
    /// A pooled parallel kind sized to the machine.
    #[must_use]
    pub fn parallel() -> Self {
        ExecutorKind::Parallel { threads: 0 }
    }

    /// Reads the backend from the `CC_EXECUTOR` environment variable
    /// (`sequential` or `parallel`/`pooled`, optionally suffixed
    /// `:<threads>` as in `parallel:4`), falling back to `fallback` when
    /// unset, so every default-configured clique in the process can be
    /// moved onto the parallel backend without touching call sites. A
    /// malformed value is reported once per process (see
    /// [`crate::env_config`]) before falling back.
    #[must_use]
    pub fn from_env_or(fallback: ExecutorKind) -> Self {
        crate::env_config::from_env_or(
            "cc-runtime",
            "CC_EXECUTOR",
            "sequential or parallel[:threads]",
            fallback,
            Self::parse,
        )
    }

    /// Parses a backend spec (`sequential` or `parallel`/`pooled`,
    /// optionally suffixed `:<threads>`); `None` for unknown names **or**
    /// malformed thread suffixes. `parallel:banana` must not silently mean
    /// `threads: 0` (machine-sized) — rejecting the whole spec lets
    /// [`ExecutorKind::from_env_or`] fall back as documented.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let (name, threads) = match raw.split_once(':') {
            Some((name, t)) => (name, t.parse().ok()?),
            None => (raw, 0),
        };
        match name.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Some(ExecutorKind::Sequential),
            "parallel" | "pooled" | "pool" => Some(ExecutorKind::Parallel { threads }),
            _ => None,
        }
    }

    fn resolved_threads(self) -> usize {
        match self {
            ExecutorKind::Sequential => 1,
            ExecutorKind::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            ExecutorKind::Parallel { threads } => threads,
        }
    }
}

/// A handle that runs independent per-index work on some backend.
///
/// The core operation is [`Executor::map`]: evaluate `f(0), …, f(n-1)` and
/// return the results in index order. The parallel backend distributes
/// indices over worker threads with an atomic work-stealing counter (so
/// skewed per-index costs still balance) and then merge results by index,
/// which makes the output — and anything downstream of it — independent of
/// thread scheduling.
///
/// ## Pool lifecycle
///
/// For [`ExecutorKind::Parallel`], `Executor::new` builds the worker pool
/// **once**: `threads - 1` OS threads are spawned eagerly and park between
/// calls (the calling thread is the remaining participant). Clones of the
/// executor share the same pool; when the last clone drops, the workers are
/// woken, joined, and gone. No `map`/`map_chunks_mut` call ever spawns a
/// thread on this backend — the spawn-probe tests pin exactly that.
#[derive(Debug, Clone)]
pub struct Executor {
    kind: ExecutorKind,
    /// Worker count with `threads: 0` already resolved against the machine
    /// (resolved once at construction — `available_parallelism` is a
    /// syscall and `threads_for` sits on hot paths).
    threads: usize,
    /// Piece-count threshold below which parallel kinds run inline.
    cutover: usize,
    /// The persistent pool: present exactly when `threads > 1`.
    pool: Option<Arc<WorkerPool>>,
    /// OS threads this executor (and its clones) ever spawned — the pool
    /// workers, at construction. The race-free spawn probe: this must
    /// never move after `new` returns.
    spawns: Arc<AtomicUsize>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new(ExecutorKind::default())
    }
}

impl PartialEq for Executor {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.threads == other.threads && self.cutover == other.cutover
    }
}

impl Eq for Executor {}

impl Executor {
    /// Creates an executor of the given kind. For the pooled kind this is
    /// where the worker threads are created — exactly once per executor
    /// lifetime (see the pool-lifecycle notes on [`Executor`]).
    ///
    /// The parallel kinds self-tune the inline cutover from a one-shot
    /// startup micro-probe (see [`probed_cutover`]) instead of assuming the
    /// hardcoded [`DEFAULT_SEQ_CUTOVER`] fits every machine;
    /// [`Executor::with_cutover`] sets it explicitly.
    #[must_use]
    pub fn new(kind: ExecutorKind) -> Self {
        Self::with_cutover(kind, default_cutover(kind))
    }

    /// [`Executor::new`] with an explicit small-`n` cutover: jobs with
    /// fewer than `cutover` pieces run inline on the calling thread even on
    /// parallel backends (their results are identical either way; only
    /// dispatch overhead changes). `0` disables the cutover.
    #[must_use]
    pub fn with_cutover(kind: ExecutorKind, cutover: usize) -> Self {
        let threads = kind.resolved_threads();
        let spawns = Arc::new(AtomicUsize::new(0));
        let pool = match kind {
            ExecutorKind::Parallel { .. } if threads > 1 => {
                Some(Arc::new(WorkerPool::new(threads - 1, &spawns)))
            }
            _ => None,
        };
        Self {
            kind,
            threads,
            cutover,
            pool,
            spawns,
        }
    }

    /// The configured kind.
    #[must_use]
    pub fn kind(&self) -> ExecutorKind {
        self.kind
    }

    /// A handle to the **same** backend — pooled kinds share this
    /// executor's worker pool, no threads are spawned — but with a
    /// different small-`n` cutover. The cutover heuristic prices jobs by
    /// *piece count*, which is right for fine-grained node-local loops and
    /// wrong for coarse fan-outs whose few pieces are each an entire
    /// algorithm run (e.g. a service batch spread over pool instances);
    /// such callers take an override handle with the cutover disabled
    /// while every nested dispatch keeps the configured one.
    #[must_use]
    pub fn with_cutover_override(&self, cutover: usize) -> Executor {
        Executor {
            cutover,
            ..self.clone()
        }
    }

    /// The small-`n` cutover threshold (see [`Executor::with_cutover`]).
    #[must_use]
    pub fn cutover(&self) -> usize {
        self.cutover
    }

    /// OS threads this executor (and its clones, which share the counter)
    /// has ever spawned. The pooled backend spawns exactly `threads - 1`
    /// workers inside [`Executor::new`] and never again — the spawn probe
    /// the determinism tests pin. Per-instance, so concurrent tests cannot perturb
    /// each other's readings (unlike the process-global
    /// [`crate::pool_threads_spawned`] diagnostic).
    #[must_use]
    pub fn threads_spawned(&self) -> usize {
        self.spawns.load(Ordering::SeqCst)
    }

    /// Number of worker threads this executor would use for a job of `n`
    /// independent pieces: never more threads than pieces, and `1` (run
    /// inline) for jobs below the sequential cutover — small fan-outs pay
    /// more in dispatch than they gain in parallelism.
    #[must_use]
    pub fn threads_for(&self, n: usize) -> usize {
        if self.threads <= 1 || n < self.cutover {
            return 1;
        }
        self.threads.clamp(1, n.max(1))
    }

    /// The pool a dispatched job runs on.
    fn pool(&self) -> &WorkerPool {
        self.pool
            .as_deref()
            .expect("threads_for dispatches only when threads > 1, which builds a pool")
    }

    /// Evaluates `f` at every index in `0..n`, returning results in index
    /// order. Deterministic for any backend: the parallel path assigns each
    /// index to exactly one worker and merges by index at the barrier.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.threads_for(n);
        emit_dispatch(n, threads);
        if threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let steal_loop = |_slot: usize| {
            let mut out = Vec::with_capacity(n / threads + 1);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                out.push((i, f(i)));
            }
            out
        };
        let parts: Vec<Vec<(usize, T)>> = run_pooled(self.pool(), steal_loop);
        // Deterministic merge: results land in their index slot regardless
        // of which worker computed them.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for part in parts {
            for (i, v) in part {
                debug_assert!(slots[i].is_none(), "index {i} computed twice");
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }

    /// Splits `data` into contiguous pieces of `chunk_len` elements (the
    /// last piece may be shorter), processes each piece on the backend, and
    /// returns results in piece order. Pieces are distributed round-robin
    /// over workers; since every piece is owned by exactly one worker and
    /// results merge by piece index, the output is deterministic.
    pub fn map_chunks_mut<T, U, F>(&self, data: &mut [T], chunk_len: usize, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T]) -> U + Sync,
    {
        assert!(chunk_len > 0, "chunk length must be positive");
        /// One worker's share: `(piece index, piece)` pairs.
        type Share<'p, T> = Vec<(usize, &'p mut [T])>;
        let pieces: Vec<&mut [T]> = data.chunks_mut(chunk_len).collect();
        let n_pieces = pieces.len();
        let threads = self.threads_for(n_pieces);
        emit_dispatch(n_pieces, threads);
        if threads <= 1 {
            return pieces
                .into_iter()
                .enumerate()
                .map(|(i, piece)| f(i, piece))
                .collect();
        }
        let mut assignments: Vec<Share<'_, T>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, piece) in pieces.into_iter().enumerate() {
            assignments[i % threads].push((i, piece));
        }
        // Hand each participant exclusive ownership of its assignment
        // through a per-slot mutex (uncontended: slot `s` is taken only by
        // participant `s`).
        let assignments: Vec<Mutex<Share<'_, T>>> =
            assignments.into_iter().map(Mutex::new).collect();
        let parts: Vec<Vec<(usize, U)>> = run_pooled(self.pool(), |slot| {
            let mine = assignments
                .get(slot)
                .map(|m| std::mem::take(&mut *m.lock().expect("assignment mutex")))
                .unwrap_or_default();
            mine.into_iter()
                .map(|(i, piece)| (i, f(i, piece)))
                .collect::<Vec<_>>()
        });
        let mut slots: Vec<Option<U>> = (0..n_pieces).map(|_| None).collect();
        for part in parts {
            for (i, v) in part {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every piece processed exactly once"))
            .collect()
    }
}

/// Upper clamp on the probed cutover: even on a machine where thread
/// hand-off is outrageously slow relative to per-piece work, jobs past a
/// thousand pieces always get the chance to dispatch.
const MAX_PROBED_CUTOVER: usize = 1024;

/// The default cutover for `kind`: the parallel kinds self-tune
/// from the startup micro-probe, while [`ExecutorKind::Sequential`] (where
/// the cutover can never matter — every job runs inline) keeps the
/// documented [`DEFAULT_SEQ_CUTOVER`].
fn default_cutover(kind: ExecutorKind) -> usize {
    if kind.resolved_threads() > 1 {
        probed_cutover()
    } else {
        DEFAULT_SEQ_CUTOVER
    }
}

/// One-shot startup micro-probe that turns this machine's measured dispatch
/// overhead into an inline cutover, instead of assuming the hardcoded
/// [`DEFAULT_SEQ_CUTOVER`] (calibrated on one box) fits everywhere.
///
/// A thread spawn/join round trip bounds the cost of waking workers and
/// re-joining at the merge barrier; a 64-element integer row combine stands
/// in for one piece of typical row-level work. Their ratio is the piece
/// count below which dispatch cannot pay for itself. The result is clamped
/// to `[DEFAULT_SEQ_CUTOVER, MAX_PROBED_CUTOVER]` — self-tuning may only
/// *raise* the threshold on slow-dispatch machines, never inline less than
/// the bench-calibrated default — cached for the process, and reported as a
/// `KernelDecision` telemetry event (`kernel = "probe"`) at
/// [`TraceLevel::Full`].
///
/// The cutover only decides *where* pieces run, never what they compute, so
/// the probe's inherent nondeterminism cannot leak into results, rounds,
/// words, or fingerprints.
///
/// [`TraceLevel::Full`]: cc_telemetry::TraceLevel::Full
fn probed_cutover() -> usize {
    static PROBED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PROBED.get_or_init(|| {
        use std::hint::black_box;
        use std::time::Instant;
        // Best-of-three spawn/join round trips (first iterations absorb
        // lazy thread-runtime setup).
        let mut dispatch_ns = u128::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            std::thread::spawn(|| black_box(0u64)).join().ok();
            dispatch_ns = dispatch_ns.min(start.elapsed().as_nanos());
        }
        // Per-piece proxy: a 64-element fused multiply-accumulate row,
        // repeated enough to be measurable.
        const REPS: u128 = 1024;
        let row = [3i64; 64];
        let start = Instant::now();
        let mut acc = 0i64;
        for r in 0..REPS {
            for &x in black_box(&row) {
                acc = acc.wrapping_add(x.wrapping_mul(r as i64));
            }
        }
        black_box(acc);
        let piece_ns = (start.elapsed().as_nanos() / REPS).max(1);
        let pieces = usize::try_from(dispatch_ns / piece_ns).unwrap_or(usize::MAX);
        let cutover = pieces.clamp(DEFAULT_SEQ_CUTOVER, MAX_PROBED_CUTOVER);
        cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
            cc_telemetry::Event::KernelDecision {
                kernel: "probe",
                op: "exec_cutover",
                n: cutover,
                tile: 0,
            }
        });
        cutover
    })
}

/// Reports one fan-out decision — piece count and the thread count the
/// cutover heuristic chose (`1` = inline) — at [`TraceLevel::Full`].
/// Observer-only and a single branch when tracing is off.
///
/// [`TraceLevel::Full`]: cc_telemetry::TraceLevel::Full
#[inline]
fn emit_dispatch(pieces: usize, threads: usize) {
    cc_telemetry::global().emit(cc_telemetry::TraceLevel::Full, || {
        cc_telemetry::Event::ExecutorDispatch { pieces, threads }
    });
}

/// Runs `work(slot)` for slots `0..=pool.workers()` on the persistent pool
/// (slot 0 on the calling thread), collecting the per-slot results. The
/// merge order over slots is irrelevant: callers merge by item index.
fn run_pooled<R: Send>(pool: &WorkerPool, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let parts: Mutex<Vec<R>> = Mutex::new(Vec::with_capacity(pool.workers() + 1));
    pool.run(&|slot| {
        let r = work(slot);
        parts.lock().expect("parts mutex").push(r);
    });
    parts.into_inner().expect("parts mutex")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parallel executor with the cutover disabled, so small test inputs
    /// genuinely exercise the pool.
    fn pooled(threads: usize) -> Executor {
        Executor::with_cutover(ExecutorKind::Parallel { threads }, 0)
    }

    #[test]
    fn map_matches_sequential_reference() {
        let seq = Executor::new(ExecutorKind::Sequential);
        let f = |i: usize| (i * i) as u64 ^ 0xdead;
        let par = pooled(4);
        for n in [0, 1, 2, 7, 64, 1000] {
            assert_eq!(seq.map(n, f), par.map(n, f), "n={n}");
        }
    }

    #[test]
    fn map_handles_skewed_work() {
        let out = pooled(3).map(100, |i| {
            // Index 0 is far more expensive than the rest; work stealing
            // keeps the other workers busy.
            if i == 0 {
                (0..100_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31))
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 100);
        assert_eq!(out[5], 5);
    }

    #[test]
    fn thread_counts_are_bounded_by_work() {
        let par = pooled(8);
        assert_eq!(par.threads_for(3), 3);
        assert_eq!(par.threads_for(0), 1);
        let seq = Executor::new(ExecutorKind::Sequential);
        assert_eq!(seq.threads_for(1000), 1);
    }

    #[test]
    fn cutover_falls_back_to_inline_below_threshold() {
        // The satellite contract: below the (tunable) work threshold a
        // parallel executor runs inline — small workloads stop paying
        // dispatch overhead.
        let par = Executor::with_cutover(ExecutorKind::Parallel { threads: 4 }, 96);
        assert_eq!(par.threads_for(64), 1, "n=64 must run inline");
        assert_eq!(par.threads_for(95), 1, "just below the threshold");
        assert_eq!(par.threads_for(96), 4, "at the threshold the pool runs");
        assert_eq!(par.threads_for(256), 4);
        // Results are identical on both sides of the cutover.
        let f = |i: usize| i as u64 * 3;
        let seq = Executor::new(ExecutorKind::Sequential);
        assert_eq!(par.map(64, f), seq.map(64, f));
        assert_eq!(par.map(200, f), seq.map(200, f));
        // Cutover 0 disables the fallback entirely.
        assert_eq!(pooled(4).threads_for(2), 2);
    }

    #[test]
    fn pooled_executor_never_spawns_after_construction() {
        let par = pooled(4);
        // Per-executor probe: 3 workers spawned at construction, and the
        // counter must never move again (race-free against other tests,
        // unlike the process-global diagnostic).
        assert_eq!(par.threads_spawned(), 3);
        for round in 0..50 {
            let out = par.map(257, |i| i as u64 + round);
            assert_eq!(out[100], 100 + round);
            let mut data: Vec<u64> = (0..300).collect();
            let _ = par.map_chunks_mut(&mut data, 7, |i, piece| {
                piece.iter_mut().for_each(|x| *x += i as u64);
                piece.len()
            });
        }
        assert_eq!(
            par.threads_spawned(),
            3,
            "map/map_chunks_mut must reuse the pool, never spawn"
        );
    }

    #[test]
    fn pool_pays_for_its_threads_at_construction_only() {
        let po = pooled(3);
        let _ = po.map(64, |i| i);
        let _ = po.map(64, |i| i);
        assert_eq!(po.threads_spawned(), 2, "pool pays only at construction");
    }

    #[test]
    fn cutover_override_shares_the_pool_and_changes_only_the_threshold() {
        let par = Executor::with_cutover(ExecutorKind::Parallel { threads: 4 }, 96);
        let coarse = par.with_cutover_override(0);
        // Same pool: no new threads; the original keeps its cutover.
        assert_eq!(coarse.threads_spawned(), 3, "override must not spawn");
        assert_eq!(
            par.threads_for(3),
            1,
            "original still runs small jobs inline"
        );
        assert_eq!(coarse.threads_for(3), 3, "override dispatches small jobs");
        let f = |i: usize| i as u64 * 7;
        assert_eq!(coarse.map(3, f), par.map(3, f));
        assert_eq!(par.threads_spawned(), 3, "no spawns after dispatch either");
    }

    #[test]
    fn clones_share_one_pool() {
        let a = pooled(4);
        let b = a.clone();
        assert_eq!(b.threads_spawned(), 3, "clone shares, does not spawn");
        assert_eq!(a.map(128, |i| i), b.map(128, |i| i));
        assert_eq!(a.threads_spawned(), 3);
    }

    #[test]
    fn map_chunks_mut_matches_sequential_reference() {
        let run = |exec: &Executor| {
            let mut data: Vec<u64> = (0..103).collect();
            let sums = exec.map_chunks_mut(&mut data, 10, |i, piece| {
                for x in piece.iter_mut() {
                    *x = x.wrapping_mul(3).wrapping_add(i as u64);
                }
                piece.iter().sum::<u64>()
            });
            (data, sums)
        };
        let reference = run(&Executor::new(ExecutorKind::Sequential));
        assert_eq!(reference, run(&pooled(4)));
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let par = Executor::new(ExecutorKind::parallel());
        assert!(par.threads_for(1_000_000) >= 1);
    }

    #[test]
    fn pooled_map_propagates_panics() {
        let par = pooled(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = par.map(64, |i| {
                assert!(i != 33, "deliberate panic at index 33");
                i
            });
        }));
        assert!(r.is_err());
        // Executor stays usable after a panicked job.
        assert_eq!(par.map(64, |i| i)[63], 63);
    }

    #[test]
    fn executor_kind_parser_accepts_known_names() {
        // Exercises the parser directly — the env var itself is
        // process-global, so the test must not read or write it.
        assert_eq!(
            ExecutorKind::parse("sequential"),
            Some(ExecutorKind::Sequential)
        );
        assert_eq!(
            ExecutorKind::parse("parallel"),
            Some(ExecutorKind::Parallel { threads: 0 })
        );
        assert_eq!(
            ExecutorKind::parse("parallel:4"),
            Some(ExecutorKind::Parallel { threads: 4 })
        );
        assert_eq!(
            ExecutorKind::parse("pooled:0"),
            Some(ExecutorKind::Parallel { threads: 0 }),
            "an explicit 0 means machine-sized"
        );
        // The deleted spawn-per-call backend's spellings are malformed now.
        for gone in ["fancy", "spawn", "spawn:2", "scoped"] {
            assert_eq!(ExecutorKind::parse(gone), None, "{gone}");
        }
    }

    #[test]
    fn executor_kind_parser_rejects_malformed_thread_suffixes() {
        // The historical bug: `parallel:banana` parsed as `threads: 0`
        // (machine-sized), silently misconfiguring the backend. A bad
        // suffix must reject the whole spec so `from_env_or` falls back.
        assert_eq!(ExecutorKind::parse("parallel:banana"), None);
        assert_eq!(ExecutorKind::parse("parallel:"), None, "empty suffix");
        assert_eq!(ExecutorKind::parse("parallel:-2"), None);
        assert_eq!(ExecutorKind::parse("parallel:4x"), None);
        assert_eq!(
            ExecutorKind::parse("seq:banana"),
            None,
            "even for kinds that ignore threads"
        );
    }

    #[test]
    fn probed_cutover_is_clamped_and_cached() {
        let probed = probed_cutover();
        assert!(
            (DEFAULT_SEQ_CUTOVER..=MAX_PROBED_CUTOVER).contains(&probed),
            "self-tuning may only raise the floor, bounded above: {probed}"
        );
        assert_eq!(probed_cutover(), probed, "one probe per process");
        // Sequential executors never consult the probe.
        assert_eq!(
            default_cutover(ExecutorKind::Sequential),
            DEFAULT_SEQ_CUTOVER
        );
    }
}
