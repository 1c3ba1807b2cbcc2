//! A persistent worker pool: OS threads spawned once per pool lifetime,
//! parked between jobs, fed whole jobs through an epoch-published slot.
//!
//! ## Lifecycle
//!
//! * **Creation** — [`WorkerPool::new`] spawns its workers eagerly; this is
//!   the only place the pool ever creates threads (observable through the
//!   owning executor's spawn counter, which the spawn-probe tests pin).
//! * **Reuse** — every [`WorkerPool::run`] call publishes one job to the
//!   same parked workers; no threads are spawned or joined per call.
//! * **Shutdown** — dropping the last handle to the pool flips the shutdown
//!   flag, wakes every worker, and joins them; no threads outlive the pool.
//!
//! ## Safety
//!
//! This module contains the crate's only `unsafe` code: the job slot erases
//! the *lifetime* of a caller-borrowed closure so parked threads can run it.
//! The same structured-concurrency argument that makes `std::thread::scope`
//! sound applies here, enforced at runtime instead of in the type system:
//!
//! * [`WorkerPool::run`] does not return until every worker has reported
//!   completion of the published epoch, so the borrow the erased pointer
//!   points at strictly outlives every dereference;
//! * the closure is `Sync`, so concurrent shared calls from many workers
//!   are permitted;
//! * a worker panic is caught, counted like a completion, and re-thrown on
//!   the calling thread after the barrier, so the "caller outlives the job"
//!   invariant holds on the unwind path too.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Total OS threads ever spawned by worker pools in this process
/// (diagnostics only — it is process-global, so *tests* must probe the
/// race-free per-executor counter, `Executor::threads_spawned`, instead:
/// unrelated tests constructing pools on other threads move this one).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of pool threads spawned so far (monotone). A
/// diagnostic for single-threaded drivers such as the `runtime_engine`
/// example; concurrent test binaries must use the per-executor
/// [`crate::Executor::threads_spawned`] probe instead.
#[must_use]
pub fn threads_spawned() -> usize {
    SPAWNED.load(Ordering::SeqCst)
}

thread_local! {
    /// Set while a pool worker executes a job; used to run nested dispatch
    /// inline instead of deadlocking on the single job slot.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A job as the workers see it: a type- and lifetime-erased pointer to the
/// caller's `Fn(usize) + Sync` closure (the argument is the participant
/// slot). Validity is guaranteed by the `run` barrier (see module docs).
#[derive(Clone, Copy)]
struct ErasedJob {
    ptr: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (shared calls are fine) and `run` keeps it
// alive for as long as any worker may dereference it, so sending the
// pointer to worker threads is sound.
unsafe impl Send for ErasedJob {}

#[derive(Default)]
struct Slot {
    /// Epoch of the most recently published job.
    published: u64,
    /// Epoch of the most recently *drained* job (all workers done). A new
    /// job may only be published once `drained == published`.
    drained: u64,
    job: Option<ErasedJob>,
    /// Workers still running the published epoch.
    running: usize,
    /// First worker panic of each undelivered epoch, re-thrown by that
    /// epoch's publisher.
    panics: Vec<(u64, Box<dyn std::any::Any + Send>)>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new epoch (or shutdown).
    job_ready: Condvar,
    /// Publishers wait here for their epoch to drain.
    job_done: Condvar,
}

/// The persistent pool. One per [`crate::Executor`] of the pooled kind;
/// handles are shared by `Arc`, and the last drop shuts the workers down.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` parked threads (the calling thread participates in
    /// every job as one extra worker, so a pool for `t` total threads wants
    /// `t - 1` here). Every spawn is recorded on `spawn_counter` — the
    /// owning executor's race-free probe — as well as the process-global
    /// diagnostic counter.
    pub(crate) fn new(workers: usize, spawn_counter: &Arc<AtomicUsize>) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot::default()),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|slot_index| {
                let shared = Arc::clone(&shared);
                SPAWNED.fetch_add(1, Ordering::SeqCst);
                spawn_counter.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("cc-exec-{slot_index}"))
                    .spawn(move || worker_loop(&shared, slot_index + 1))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of pool threads (the calling thread adds one participant on
    /// top of this during [`WorkerPool::run`]).
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job(slot)` once per participant — slot `0` on the calling
    /// thread, slots `1..=workers` on the pool — and returns after every
    /// participant finished. Panics from any participant are propagated.
    ///
    /// Nested calls (a job calling `run` again from a pool worker) degrade
    /// to running every slot inline on the current thread: correct for any
    /// merge-by-index job, and free of slot contention by construction.
    pub(crate) fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || IN_POOL_JOB.with(std::cell::Cell::get) {
            for slot in 0..=self.workers.len() {
                job(slot);
            }
            return;
        }
        // SAFETY: pure lifetime erasure (`'caller` → `'static`) so the
        // pointer fits the slot; the barrier below keeps the pointee alive
        // for every dereference (see module docs).
        let erased = ErasedJob {
            ptr: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(job)
            },
        };
        let my_epoch = {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            // One job at a time: if another caller thread's epoch is still
            // draining (only possible when distinct threads share one
            // executor), wait for it first.
            while slot.drained < slot.published {
                slot = self.shared.job_done.wait(slot).expect("pool mutex");
            }
            slot.published += 1;
            slot.job = Some(erased);
            slot.running = self.workers.len();
            self.shared.job_ready.notify_all();
            slot.published
        };
        // The caller is participant 0 — it does real work instead of idling
        // at the barrier.
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panic = {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            while slot.drained < my_epoch {
                slot = self.shared.job_done.wait(slot).expect("pool mutex");
            }
            slot.panics
                .iter()
                .position(|(e, _)| *e == my_epoch)
                .map(|i| slot.panics.swap_remove(i).1)
        };
        // Pool-worker panics win (they already poisoned the job); otherwise
        // re-throw the caller's own.
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
        if let Err(p) = caller_result {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for h in self.workers.drain(..) {
            // A worker that panicked inside a job already surfaced the
            // payload through `run`; nothing useful left to rethrow here.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, my_slot: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let (epoch, job) = {
            let mut slot = shared.slot.lock().expect("pool mutex");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.published > seen_epoch {
                    seen_epoch = slot.published;
                    break (seen_epoch, slot.job.expect("published epoch carries a job"));
                }
                slot = shared.job_ready.wait(slot).expect("pool mutex");
            }
        };
        // SAFETY: `run` blocks until this epoch is drained, which happens
        // strictly after this call returns, so the pointee is alive; the
        // closure is `Sync`, so shared invocation is allowed.
        let result = catch_unwind(AssertUnwindSafe(|| {
            IN_POOL_JOB.with(|f| f.set(true));
            unsafe { (*job.ptr)(my_slot) };
        }));
        IN_POOL_JOB.with(|f| f.set(false));
        let mut slot = shared.slot.lock().expect("pool mutex");
        if let Err(p) = result {
            if !slot.panics.iter().any(|(e, _)| *e == epoch) {
                slot.panics.push((epoch, p));
            }
        }
        slot.running -= 1;
        if slot.running == 0 {
            slot.drained = epoch;
            shared.job_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(workers: usize) -> (WorkerPool, Arc<AtomicUsize>) {
        let counter = Arc::new(AtomicUsize::new(0));
        (WorkerPool::new(workers, &counter), counter)
    }

    #[test]
    fn pool_runs_every_slot_exactly_once() {
        let (pool, _) = counted(3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|slot| {
            hits[slot].fetch_add(1, Ordering::SeqCst);
        });
        for (slot, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "slot {slot}");
        }
    }

    #[test]
    fn pool_is_reusable_without_spawning() {
        // The per-pool counter is race-free: unrelated tests constructing
        // their own pools on other threads cannot move it.
        let (pool, spawns) = counted(2);
        assert_eq!(spawns.load(Ordering::SeqCst), 2, "spawns happen at new()");
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
        assert_eq!(spawns.load(Ordering::SeqCst), 2, "run() must never spawn");
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let (pool, _) = counted(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|slot| {
                assert!(slot != 1, "boom in a pool worker");
            });
        }));
        assert!(r.is_err(), "panic must cross the barrier");
        // The pool survives a panicked job and keeps serving.
        let ok = AtomicUsize::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nested_runs_degrade_to_inline() {
        let (pool, _) = counted(2);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.run(&|_| {
            outer.fetch_add(1, Ordering::SeqCst);
            pool.run(&|_| {
                inner.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer.load(Ordering::SeqCst), 3);
        // The two pool workers run the nested job inline (3 slots each);
        // the caller is outside any pool job, so its nested call is a real
        // dispatch over 3 participants: 2·3 + 3 = 9.
        assert_eq!(inner.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn two_caller_threads_serialise_on_one_pool() {
        let pool = Arc::new(counted(2).0);
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        pool.run(&|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 25 * 3);
    }
}
