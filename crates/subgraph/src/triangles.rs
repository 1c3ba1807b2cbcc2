//! Triangle counting (Corollary 2, after Itai–Rodeh).

use crate::traces;
use cc_algebra::IntRing;
use cc_clique::Clique;
use cc_core::{fast_mm, semiring_mm, sparse_mm, RowMatrix};
use cc_graph::Graph;

/// Counts triangles in `O(n^ρ)` rounds: undirected triangles
/// `tr(A³)/6`, directed 3-cycles `tr(A³)/3` (Corollary 2).
///
/// The trace is computed as `tr(A²·A)` with one fast multiplication, a
/// transpose round, and a broadcast sum.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
///
/// # Examples
///
/// ```rust
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_subgraph::count_triangles;
///
/// let g = generators::complete(5);
/// let mut clique = Clique::new(5);
/// assert_eq!(count_triangles(&mut clique, &g), 10);
/// ```
pub fn count_triangles(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let a = RowMatrix::from_rows(clique.executor().map(n, |u| g.out_row(u, 0, |_, _| 1)));
    clique.phase("triangles", |clique| {
        let a2 = fast_mm::multiply_auto(clique, &IntRing, &a, &a);
        let tr = traces::trace_of_product(clique, &a2, &a);
        finish_count(clique, g, tr)
    })
}

/// Density-dispatching triangle count: the square `A²` goes through the
/// sparse/dense front door ([`cc_core::sparse_mm::multiply_auto_ring`]),
/// so sparse graphs ride the Le Gall 2016 nnz-aware path (rounds bound by
/// `Σ deg(y)²/n`, constant for bounded degree) while dense graphs fall
/// back to the fast bilinear engine — automatically, from one degree
/// census. `sparse_and_rect_mm_are_executor_independent` in
/// `tests/runtime_determinism.rs` holds the sparse path on dense inputs.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
pub fn count_triangles_auto(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let a = RowMatrix::from_rows(clique.executor().map(n, |u| g.out_row(u, 0, |_, _| 1)));
    clique.phase("triangles", |clique| {
        let a2 = sparse_mm::multiply_auto_ring(clique, &IntRing, &a, &a);
        let tr = traces::trace_of_product(clique, &a2, &a);
        finish_count(clique, g, tr)
    })
}

/// [`count_triangles`] with the product computed by the 3D *semiring*
/// algorithm instead of the fast bilinear one — `O(n^{1/3})` rounds with
/// smaller constants at moderate `n` (this is, in essence, the Dolev et al.
/// bound achieved through Theorem 1's first part). Exposed so experiments
/// can compare the two engines on identical workloads.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
pub fn count_triangles_3d(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let a = RowMatrix::from_rows(clique.executor().map(n, |u| g.out_row(u, 0, |_, _| 1)));
    clique.phase("triangles3d", |clique| {
        let a2 = semiring_mm::multiply(clique, &IntRing, &a, &a);
        let tr = traces::trace_of_product(clique, &a2, &a);
        finish_count(clique, g, tr)
    })
}

fn finish_count(_clique: &mut Clique, g: &Graph, tr: i64) -> u64 {
    let denom = if g.is_directed() { 3 } else { 6 };
    debug_assert_eq!(tr % denom, 0, "trace {tr} not divisible by {denom}");
    (tr / denom) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(count_triangles(&mut clique, g), oracle::count_triangles(g));
    }

    #[test]
    fn known_undirected_graphs() {
        check(&generators::complete(4));
        check(&generators::complete(7));
        check(&generators::cycle(5));
        check(&generators::petersen());
        check(&generators::complete_bipartite(3, 4));
        check(&generators::grid(3, 3));
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..4 {
            check(&generators::gnp(20, 0.3, seed));
            check(&generators::gnp(33, 0.15, seed + 10));
        }
    }

    #[test]
    fn directed_graphs_match_oracle() {
        check(&generators::directed_cycle(3));
        for seed in 0..3 {
            check(&generators::gnp_directed(15, 0.2, seed));
        }
    }

    #[test]
    fn empty_and_sparse() {
        check(&generators::path(8));
        check(&Graph::undirected(6));
    }

    #[test]
    fn semiring_3d_variant_matches_fast_variant() {
        for seed in 0..3 {
            let g = generators::gnp(24, 0.3, seed);
            let mut c1 = Clique::new(24);
            let mut c2 = Clique::new(24);
            assert_eq!(
                count_triangles(&mut c1, &g),
                count_triangles_3d(&mut c2, &g),
                "seed={seed}"
            );
        }
        let d = generators::gnp_directed(15, 0.2, 4);
        let mut clique = Clique::new(15);
        assert_eq!(
            count_triangles_3d(&mut clique, &d),
            oracle::count_triangles(&d)
        );
    }

    #[test]
    fn auto_dispatch_matches_oracle_on_both_regimes() {
        // Sparse regime (bounded degree) and dense regime through the same
        // front door; both must agree with the centralized oracle.
        for g in [
            generators::gnp(32, 1.5 / 32.0, 3),
            generators::cycle(24),
            generators::gnp(24, 0.5, 4),
            generators::complete(16),
        ] {
            let mut clique = Clique::new(g.n());
            assert_eq!(
                count_triangles_auto(&mut clique, &g),
                oracle::count_triangles(&g),
                "n={} m={}",
                g.n(),
                g.m()
            );
        }
    }

    #[test]
    fn auto_dispatch_is_cheaper_on_sparse_graphs() {
        // The point of the front door: a bounded-degree graph must cost
        // less through dispatch than through the always-dense engine.
        let g = generators::gnp(64, 1.5 / 64.0, 9);
        let mut ca = Clique::new(64);
        let auto = count_triangles_auto(&mut ca, &g);
        let mut cd = Clique::new(64);
        let dense = count_triangles(&mut cd, &g);
        assert_eq!(auto, dense);
        assert!(
            ca.stats().words() < cd.stats().words(),
            "dispatched words {} vs dense words {}",
            ca.stats().words(),
            cd.stats().words()
        );
    }

    #[test]
    fn round_cost_is_sublinear() {
        let g = generators::gnp(64, 0.4, 2);
        let mut clique = Clique::new(64);
        count_triangles(&mut clique, &g);
        assert!(
            clique.rounds() < 64,
            "triangle counting should be well below n rounds (got {})",
            clique.rounds()
        );
    }
}
