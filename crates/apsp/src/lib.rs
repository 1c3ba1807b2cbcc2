//! # cc-apsp: all-pairs shortest paths in the congested clique
//!
//! Distributed APSP algorithms from Section 3.3 of the paper:
//!
//! * [`apsp_exact`] — Corollary 6: iterated squaring of the weight matrix
//!   over the min-plus semiring in `O(n^{1/3} log n)` rounds, including
//!   **routing tables** built from distance-product witnesses (§3.4);
//! * [`apsp_seidel`] — Corollary 7: exact APSP for unweighted undirected
//!   graphs in `Õ(n^ρ)` rounds via Seidel's squaring recursion (Lemma 17);
//! * [`apsp_small_weights`] — Lemma 19 / Corollary 8: exact APSP for
//!   positive weights with weighted diameter `U` in `Õ(U·n^ρ)` rounds,
//!   including the reachability-guided doubling search for unknown `U`;
//! * [`apsp_approx`] — Theorem 9: `(1+o(1))`-approximate APSP in
//!   `O(n^{ρ+o(1)})` rounds via the scaled distance products of Lemma 20.
//!
//! ## Example
//!
//! ```rust
//! use cc_algebra::Dist;
//! use cc_clique::Clique;
//! use cc_graph::Graph;
//! use cc_apsp::apsp_exact;
//!
//! let mut g = Graph::undirected(5);
//! g.add_weighted_edge(0, 1, 2);
//! g.add_weighted_edge(1, 2, 2);
//! g.add_weighted_edge(0, 2, 10);
//! let mut clique = Clique::new(5);
//! let result = apsp_exact(&mut clique, &g);
//! assert_eq!(result.dist.row(0)[2], Dist::finite(4));
//! assert_eq!(result.next_hop(0, 2), Some(1)); // route 0 → 1 → 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod exact;
mod metrics;
mod paths;
mod seidel;
mod small_weights;

use cc_algebra::{Dist, INFINITY};
use cc_clique::Executor;
use cc_core::RowMatrix;
use cc_graph::Graph;

/// The row-distributed weight matrix every APSP entry point starts from
/// (zero diagonal, edge weights, `∞` for non-edges — the `Graph::weight_matrix`
/// convention), tabulated per node on the clique's executor: row `v` is node
/// `v`'s local view, filled from its neighbour list.
fn weight_rows(exec: &Executor, g: &Graph) -> RowMatrix<Dist> {
    RowMatrix::from_rows(exec.map(g.n(), |u| {
        let mut row = g.out_row(u, INFINITY, |_, w| Dist::finite(w));
        row[u] = Dist::zero();
        row
    }))
}

pub use crate::approx::{apsp_approx, delta_for_target};
pub use crate::exact::{apsp_exact, ApspTables};
pub use crate::metrics::{metrics_from_distances, unweighted_metrics, DistanceMetrics};
pub use crate::paths::{seidel_with_paths, successors_from_distances};
pub use crate::seidel::apsp_seidel;
pub use crate::small_weights::{apsp_small_weights, reachability};
