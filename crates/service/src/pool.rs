//! The warm [`CliquePool`]: simulator instances built once, checked out
//! per query, reset and checked back in — never rebuilt.

use cc_clique::{Clique, CliqueConfig};
use cc_runtime::Executor;
use std::collections::BTreeMap;

/// A pool of warm [`Clique`] instances, keyed by clique size `n` under one
/// fixed `(executor, transport)` configuration.
///
/// Building a clique is the expensive part of a one-shot call: the pooled
/// executor spawns worker threads, the socket and TCP transports whole
/// worker processes. The pool pays that
/// once per `(n, config)` and then serves every subsequent query by
/// [`Clique::reset`] — which zeroes the accounting but keeps the warm
/// infrastructure — so the steady-state cost of a query is the simulation
/// itself, not the setup. All instances share **one** executor handle
/// (one worker pool of OS threads), via
/// [`Clique::with_config_and_executor`].
///
/// The reuse is semantically invisible: a reset clique replays a fresh
/// clique bit-for-bit (answers, rounds, words, pattern fingerprints), which
/// the determinism suite pins.
#[derive(Debug)]
pub struct CliquePool {
    cfg: CliqueConfig,
    exec: Executor,
    idle: BTreeMap<usize, Vec<Clique>>,
    built: u64,
    reused: u64,
}

impl CliquePool {
    /// An empty pool serving cliques configured by `cfg`. The executor is
    /// built here, once, and shared by every instance the pool ever
    /// creates.
    #[must_use]
    pub fn new(cfg: CliqueConfig) -> Self {
        let exec = cfg.build_executor();
        Self {
            cfg,
            exec,
            idle: BTreeMap::new(),
            built: 0,
            reused: 0,
        }
    }

    /// The shared executor handle (a cheap clone; pooled kinds share one
    /// persistent worker pool).
    #[must_use]
    pub fn executor(&self) -> Executor {
        self.exec.clone()
    }

    /// Checks out a clique of `n` nodes: a warm idle instance when one
    /// exists (reset, so its accounting reads zero), a freshly built one
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn checkout(&mut self, n: usize) -> Clique {
        match self.idle.get_mut(&n).and_then(Vec::pop) {
            Some(mut clique) => {
                self.reused += 1;
                clique.reset();
                clique
            }
            None => {
                self.built += 1;
                Clique::with_config_and_executor(n, self.cfg.clone(), self.exec.clone())
            }
        }
    }

    /// Returns a clique to the pool for the next checkout of its size.
    pub fn checkin(&mut self, clique: Clique) {
        self.idle.entry(clique.n()).or_default().push(clique);
    }

    /// Cliques ever built (cold constructions).
    #[must_use]
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Checkouts served by a warm instance instead of a build.
    #[must_use]
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Idle warm instances of size `n` right now.
    #[must_use]
    pub fn idle_instances(&self, n: usize) -> usize {
        self.idle.get(&n).map_or(0, Vec::len)
    }

    /// Idle warm instances across every size (the occupancy gauge).
    #[must_use]
    pub fn idle_total(&self) -> usize {
        self.idle.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_prefers_warm_instances() {
        let mut pool = CliquePool::new(CliqueConfig::default());
        let a = pool.checkout(8);
        assert_eq!((pool.built(), pool.reused()), (1, 0));
        pool.checkin(a);
        assert_eq!(pool.idle_instances(8), 1);
        let b = pool.checkout(8);
        assert_eq!((pool.built(), pool.reused()), (1, 1), "warm hit");
        assert_eq!(b.rounds(), 0, "checked-out instance starts reset");
        // A different size is a different key: cold build.
        let c = pool.checkout(4);
        assert_eq!((pool.built(), pool.reused()), (2, 1));
        pool.checkin(b);
        pool.checkin(c);
    }

    #[test]
    fn instances_share_one_executor_pool() {
        use cc_clique::ExecutorKind;
        let mut pool = CliquePool::new(CliqueConfig {
            executor: ExecutorKind::Parallel { threads: 3 },
            ..CliqueConfig::default()
        });
        let a = pool.checkout(6);
        let b = pool.checkout(6);
        // 2 workers spawned once at pool construction; instance builds
        // must not add any.
        assert_eq!(pool.executor().threads_spawned(), 2);
        assert_eq!(a.executor().threads_spawned(), 2);
        assert_eq!(b.executor().threads_spawned(), 2);
    }
}
