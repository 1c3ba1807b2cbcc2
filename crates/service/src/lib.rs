//! # cc-service: a batched query-serving layer for the congested clique
//!
//! Every algorithm in this workspace is a one-shot function: build a fresh
//! [`Clique`](cc_clique::Clique), run, throw everything away. That is the
//! right shape for reproducing a paper and the wrong shape for serving
//! traffic — real workloads ask many questions about few graphs, repeat
//! themselves constantly, and should never pay simulator construction (or
//! a second simulation of identical work) per question. This crate is the
//! layer that turns the algorithmic menu into a service:
//!
//! * [`GraphRegistry`] — graphs registered **once**, content-fingerprinted
//!   ([`cc_graph::Graph::fingerprint`]), deduplicated, and shared via
//!   `Arc` with every query that touches them.
//! * [`CliquePool`] — **warm simulator instances** keyed by clique size
//!   under one `(executor, transport)` configuration: checked out per
//!   computation, [`reset`](cc_clique::Clique::reset) (accounting zeroed,
//!   worker threads / node threads / worker processes kept), checked back
//!   in. All instances share one executor handle, so a pool of cliques
//!   owns one pool of OS threads.
//! * [`Query`] / [`Response`] — the typed API: [`Query::TriangleCount`],
//!   [`Query::ApspTable`], [`Query::Distance`], [`Query::GirthBound`],
//!   [`Query::SubgraphFlag`], each with a canonical cache key of graph
//!   fingerprint + computation kind + config-relevant knobs.
//! * A fingerprint-keyed **result cache** — a repeated query returns a
//!   bit-identical answer *and accounting* with **zero additional
//!   simulated rounds**; cached APSP tables additionally memoize, so
//!   point-to-point [`Query::Distance`] lookups are O(1) once any
//!   distance (or table) query primed the graph.
//! * A deterministic **batch scheduler** ([`Service::drain`]) — the
//!   submission queue drains in seeded order, duplicate in-flight queries
//!   coalesce into one computation, and independent computations fan over
//!   pool instances via the shared [`Executor`](cc_runtime::Executor).
//!
//! The cache key deliberately excludes the executor and transport: the
//! workspace-wide determinism contract (results, rounds, words, and
//! pattern fingerprints are bit-identical across backends) is what makes a
//! result primed on one backend valid on all of them — the service is the
//! first consumer that turns that contract into capacity.
//!
//! Like `CC_EXECUTOR` and `CC_TRANSPORT`, the `CC_SERVICE` environment
//! variable (`direct` or `batch[:instances]`) retargets every
//! default-configured service in the process. `tests/service_behaviour.rs`
//! holds the scheduler axis:
//! `direct_and_batch_modes_serve_identical_outcomes` compares the modes,
//! and `batches_fan_mixed_graphs_and_sizes_through_the_warm_pool` fans one
//! batch over three instances.
//!
//! ## Example
//!
//! ```rust
//! use cc_graph::generators;
//! use cc_service::{Query, Service};
//!
//! let mut svc = Service::default();
//! let g = svc.register(generators::petersen());
//!
//! // Prime: the Petersen graph has girth 5 and no triangles.
//! let fresh = svc.query(g, Query::TriangleCount);
//! assert_eq!(fresh.response.triangles(), Some(0));
//! assert!(!fresh.cached && fresh.rounds > 0);
//!
//! // Repeat: same answer, same accounting, zero new simulated rounds.
//! let replay = svc.query(g, Query::TriangleCount);
//! assert_eq!(replay.response, fresh.response);
//! assert_eq!((replay.rounds, replay.words), (fresh.rounds, fresh.words));
//! assert!(replay.cached);
//!
//! // A distance query primes the APSP table; the table then memoizes
//! // every point-to-point lookup on the graph.
//! let d = svc.query(g, Query::Distance { s: 0, t: 7 });
//! assert!(!d.cached);
//! assert!(svc.query(g, Query::Distance { s: 7, t: 0 }).cached);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod pool;
mod query;
mod registry;
mod service;

pub use crate::pool::CliquePool;
pub use crate::query::{Query, Response};
pub use crate::registry::{GraphId, GraphRegistry};
pub use crate::service::{
    QueryOutcome, Service, ServiceConfig, ServiceMode, ServiceStats, Ticket,
    DEFAULT_BATCH_INSTANCES, DEFAULT_MAX_CACHED, DEFAULT_MAX_CACHE_BYTES, DEFAULT_MAX_UNREDEEMED,
};
