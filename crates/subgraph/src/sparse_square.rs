//! The sparse-multiplication reading of Theorem 4.
//!
//! The paper remarks that the key part of its 4-cycle detector "can be
//! interpreted as an efficient routine for sparse matrix multiplication,
//! under a specific definition of sparseness": whenever
//! `Σ_y deg(y)² < 2n²` (equivalently, every node starts at most `2n−2`
//! 2-walks), the full square `A²` of the adjacency matrix — not just a
//! cycle indicator — can be assembled row-by-row in `O(1)` rounds.
//!
//! Since PR 3 the heavy lifting lives in [`cc_core::sparse_mm`], the
//! first-class Le Gall 2016 sparse-multiplication subsystem: for an
//! adjacency matrix, the plan's per-index work `nnz(col_y)·nnz(row_y)` is
//! exactly `deg(y)²`, so the Theorem 4 precondition `Σ deg(y)² < 2n²`
//! bounds the sparse plan's total work by `2n²` and the general machinery
//! delivers `A²` with `O(n)` words per node — constant rounds, as the
//! remark promises. This module keeps the paper's *contract* (the density
//! gate, reporting the dense case honestly instead of silently degrading)
//! and delegates the multiplication to the shared path.

use cc_algebra::IntRing;
use cc_clique::Clique;
use cc_core::{sparse_mm, RowMatrix};
use cc_graph::Graph;

/// Computes `A²` over the integers in `O(1)` rounds, or returns `None` if
/// the graph is too dense for the Theorem 4 bound (some node starts
/// `≥ 2n−1` 2-walks). All nodes learn which case occurred (one broadcast).
///
/// A thin wrapper over [`cc_core::sparse_mm::multiply`]: the Theorem 4
/// two-walk gate in front, the general nnz-aware sparse path behind. (The
/// historical `n ≥ 8` restriction of the tile-square implementation is
/// gone — the general path handles every clique size.)
///
/// # Panics
///
/// Panics if the graph is directed or sizes mismatch.
pub fn sparse_square(clique: &mut Clique, g: &Graph) -> Option<RowMatrix<i64>> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(
        !g.is_directed(),
        "the square gate applies to undirected graphs"
    );

    clique.phase("sparse_square", |clique| {
        // The density gate (Theorem 4 phase 1): degree broadcast, per-node
        // two-walk counts on the executor, one OR round for the verdict.
        let exec = clique.executor();
        let degrees: Vec<usize> = clique
            .broadcast(|v| g.degree(v) as u64)
            .into_iter()
            .map(|w| w as usize)
            .collect();
        let two_walks: Vec<usize> = exec.map(n, |x| g.neighbors(x).map(|y| degrees[y]).sum());
        if clique.or_all(|x| two_walks[x] >= 2 * n - 1) {
            return None; // dense: fall back to Theorem 1 multiplication
        }

        let a = RowMatrix::from_rows(exec.map(n, |u| g.out_row(u, 0, |_, _| 1)));
        Some(sparse_mm::multiply(clique, &IntRing, &a, &a))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_algebra::{IntRing, Matrix};
    use cc_graph::generators;

    fn check(g: &Graph) {
        let mut clique = Clique::new(g.n());
        let sq = sparse_square(&mut clique, g).expect("sparse instance");
        let a = g.adjacency_matrix();
        assert_eq!(
            sq.to_matrix(),
            Matrix::mul(&IntRing, &a, &a),
            "n={} m={}",
            g.n(),
            g.m()
        );
    }

    #[test]
    fn matches_a_squared_on_sparse_graphs() {
        check(&generators::cycle(12));
        check(&generators::petersen());
        check(&generators::grid(4, 4));
        check(&generators::path(9));
        for seed in 0..4 {
            check(&generators::gnp(24, 2.0 / 24.0, seed));
        }
    }

    #[test]
    fn tiny_cliques_are_supported() {
        // The old tile-square implementation demanded n ≥ 8; the general
        // sparse path behind the wrapper has no such floor.
        check(&generators::path(3));
        check(&generators::cycle(5));
        check(&generators::path(2));
    }

    #[test]
    fn dense_graphs_are_reported() {
        let g = generators::complete(16);
        let mut clique = Clique::new(16);
        assert!(sparse_square(&mut clique, &g).is_none());
    }

    #[test]
    fn rounds_stay_constant() {
        let rounds = |n: usize| {
            let g = generators::gnp(n, 1.2 / n as f64, 3);
            let mut clique = Clique::new(n);
            let _ = sparse_square(&mut clique, &g);
            clique.rounds()
        };
        let (small, large) = (rounds(32), rounds(256));
        assert!(
            large <= small + 16,
            "O(1) rounds expected: {small} vs {large}"
        );
    }

    #[test]
    fn diagonal_equals_degree() {
        let g = generators::gnp(20, 0.1, 7);
        let mut clique = Clique::new(20);
        if let Some(sq) = sparse_square(&mut clique, &g) {
            for v in 0..20 {
                assert_eq!(sq.row(v)[v], g.degree(v) as i64);
            }
        }
    }

    #[test]
    fn density_boundary_is_exact() {
        // K₅ + 4 isolated nodes: every clique node starts 4·4 = 16 = 2n−2
        // two-walks — exactly at the threshold, accepted.
        let at = generators::complete(5).padded(4);
        let mut clique = Clique::new(9);
        let sq = sparse_square(&mut clique, &at).expect("2n−2 two-walks is still sparse");
        let a = at.adjacency_matrix();
        assert_eq!(sq.to_matrix(), Matrix::mul(&IntRing, &a, &a));

        // One pendant edge more: node 0's neighbours now see 3·4 + 5 = 17
        // = 2n−1 two-walks — one over, rejected.
        let mut over = at.clone();
        over.add_edge(0, 5);
        let mut clique = Clique::new(9);
        assert!(sparse_square(&mut clique, &over).is_none());
    }

    #[test]
    fn wrapper_agrees_with_the_general_sparse_path() {
        // The thin-wrapper contract: behind the gate, `sparse_square` IS
        // `sparse_mm::multiply` on the adjacency matrix.
        let g = generators::gnp(24, 2.0 / 24.0, 11);
        let mut c1 = Clique::new(24);
        let sq = sparse_square(&mut c1, &g).expect("sparse instance");
        let a = RowMatrix::from_matrix(&g.adjacency_matrix());
        let mut c2 = Clique::new(24);
        let direct = cc_core::sparse_mm::multiply(&mut c2, &IntRing, &a, &a);
        assert_eq!(sq.to_matrix(), direct.to_matrix());
    }
}
