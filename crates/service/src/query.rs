//! The typed query/response surface of the service.

use cc_algebra::Dist;
use cc_apsp::ApspTables;
use std::sync::Arc;

/// One question about one registered graph.
///
/// Every variant maps to a *computation kind* (the private `Query::compute_kind`)
/// that, together with the graph's content fingerprint and the service's
/// config-relevant knobs, forms the canonical cache key. Point-to-point
/// [`Query::Distance`] queries deliberately share the [`Query::ApspTable`]
/// computation: the cached table memoizes them into O(1) local lookups
/// with zero additional simulated rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Query {
    /// Count triangles (directed graphs: directed 3-cycles) — Corollary 2.
    TriangleCount,
    /// The full exact APSP distance + routing tables — Corollary 6.
    ApspTable,
    /// Shortest-path distance from `s` to `t` (served from the memoized
    /// APSP table; `INFINITY` when unreachable).
    Distance {
        /// Source node.
        s: usize,
        /// Target node.
        t: usize,
    },
    /// The girth — [`cc_subgraph::girth`] for undirected graphs (Theorem
    /// 15), [`cc_subgraph::directed_girth`] for directed ones (Corollary
    /// 16); `None` for acyclic inputs.
    GirthBound,
    /// Whether the (undirected) graph contains a 4-cycle — the Theorem 4
    /// O(1)-round combinatorial detector.
    SubgraphFlag,
}

/// The distinct distributed computations the service knows how to run; the
/// unit of caching and of duplicate coalescing. Several queries may map to
/// one kind (`Distance` rides `Apsp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ComputeKind {
    Triangles,
    Apsp,
    Girth,
    FourCycle,
}

impl Query {
    /// The computation this query needs (the coalescing/caching unit).
    pub(crate) fn compute_kind(self) -> ComputeKind {
        match self {
            Query::TriangleCount => ComputeKind::Triangles,
            Query::ApspTable | Query::Distance { .. } => ComputeKind::Apsp,
            Query::GirthBound => ComputeKind::Girth,
            Query::SubgraphFlag => ComputeKind::FourCycle,
        }
    }
}

/// A query's answer.
///
/// Variants mirror [`Query`]; the APSP table travels behind an [`Arc`] so
/// a cached table is shared, never copied, by however many table and
/// distance queries it serves.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Triangle (or directed 3-cycle) count.
    TriangleCount(u64),
    /// Exact distances and routing tables.
    ApspTable(Arc<ApspTables>),
    /// Point-to-point distance (`INFINITY` when unreachable).
    Distance(Dist),
    /// The girth, or `None` for acyclic graphs.
    GirthBound(Option<usize>),
    /// Whether a 4-cycle exists.
    SubgraphFlag(bool),
}

impl Response {
    /// The triangle count, if this is a [`Response::TriangleCount`].
    #[must_use]
    pub fn triangles(&self) -> Option<u64> {
        match self {
            Response::TriangleCount(t) => Some(*t),
            _ => None,
        }
    }

    /// The APSP tables, if this is a [`Response::ApspTable`].
    #[must_use]
    pub fn apsp(&self) -> Option<&Arc<ApspTables>> {
        match self {
            Response::ApspTable(t) => Some(t),
            _ => None,
        }
    }

    /// The distance, if this is a [`Response::Distance`].
    #[must_use]
    pub fn distance(&self) -> Option<Dist> {
        match self {
            Response::Distance(d) => Some(*d),
            _ => None,
        }
    }

    /// The girth, if this is a [`Response::GirthBound`].
    #[must_use]
    pub fn girth(&self) -> Option<Option<usize>> {
        match self {
            Response::GirthBound(g) => Some(*g),
            _ => None,
        }
    }

    /// The flag, if this is a [`Response::SubgraphFlag`].
    #[must_use]
    pub fn subgraph_flag(&self) -> Option<bool> {
        match self {
            Response::SubgraphFlag(f) => Some(*f),
            _ => None,
        }
    }

    /// Approximate heap + inline size of this response in bytes, for the
    /// cache-size gauges. Scalar answers count their value; the APSP tables
    /// count both `n × n` matrices (distances and routing), which is where
    /// cache memory actually goes.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        match self {
            Response::TriangleCount(_) => size_of::<u64>() as u64,
            Response::ApspTable(t) => {
                let n = t.dist.n() as u64;
                n * n * (size_of::<Dist>() + size_of::<usize>()) as u64
            }
            Response::Distance(_) => size_of::<Dist>() as u64,
            Response::GirthBound(_) => size_of::<Option<usize>>() as u64,
            Response::SubgraphFlag(_) => size_of::<bool>() as u64,
        }
    }
}
