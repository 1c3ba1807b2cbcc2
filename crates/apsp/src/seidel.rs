//! Seidel's algorithm for unweighted undirected APSP (Corollary 7,
//! Lemma 17).

use cc_algebra::{Dist, IntRing, INFINITY};
use cc_clique::Clique;
use cc_core::{boolean, fast_mm, FastPlan, RowMatrix};
use cc_graph::Graph;

/// Corollary 7: exact all-pairs shortest paths for an unweighted undirected
/// graph in `Õ(n^ρ)` rounds.
///
/// Recursively squares the graph (`G²` connects nodes at distance ≤ 2,
/// built with one Boolean product), solves `G²`, and reconstructs the
/// parity of each distance from the integer product `S = D_{G²}·A` using
/// Lemma 17:
///
/// ```text
///   d_G(u,v) = 2·d_{G²}(u,v) − [ S[u][v] < d_{G²}(u,v) · deg_G(v) ]
/// ```
///
/// Disconnected graphs are handled by the fixpoint base case (every
/// component is a clique in `G^{2^t}` for some `t`); cross-component pairs
/// stay at `∞` throughout.
///
/// # Panics
///
/// Panics if the graph is directed or weighted, or sizes mismatch.
pub fn apsp_seidel(clique: &mut Clique, g: &Graph) -> RowMatrix<Dist> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(
        !g.is_directed(),
        "Seidel's algorithm needs an undirected graph"
    );
    assert!(
        g.edges().iter().all(|&(_, _, w)| w == 1),
        "Seidel's algorithm is unweighted"
    );

    let alg = FastPlan::best_strassen(n);
    let exec = clique.executor();
    let a = RowMatrix::from_rows(exec.map(n, |u| g.out_row(u, false, |_, _| true)));
    clique.phase("seidel", |clique| seidel_rec(clique, &alg, &a, 0))
}

fn seidel_rec(
    clique: &mut Clique,
    alg: &cc_algebra::BilinearAlgorithm,
    a: &RowMatrix<bool>,
    depth: usize,
) -> RowMatrix<Dist> {
    let n = a.n();
    assert!(depth <= n.ilog2() as usize + 2, "Seidel recursion too deep");
    // Per-row node-local steps (diagonal strip, fixpoint scan, integer
    // lifts, parity reconstruction) fan out on the configured backend.
    let exec = clique.executor();

    // The square graph: adjacency of G² is (A² ∨ A) minus the diagonal.
    let sq = boolean::multiply_or(clique, alg, a, a, a);
    let sq = sq.par_map_indexed(&exec, |u, v, &x| x && u != v);

    // Fixpoint test (1 broadcast round): G = G² means every component is
    // complete, so distances are 1 for edges and ∞ across components. Each
    // node scans its own row on the executor; the OR is one broadcast.
    let row_changed = exec.map(n, |u| (0..n).any(|v| sq.row(u)[v] != a.row(u)[v]));
    let changed = clique.or_all(|u| row_changed[u]);
    if !changed {
        return a.par_map_indexed(&exec, |u, v, &adj| {
            if u == v {
                Dist::zero()
            } else if adj {
                Dist::finite(1)
            } else {
                INFINITY
            }
        });
    }

    // Solve the square graph recursively.
    let d2 = seidel_rec(clique, alg, &sq, depth + 1);

    // Lemma 17: S = D_{G²} · A over ℤ (∞ encoded as 0 — such terms never
    // contribute to same-component pairs), one fast product.
    let d2_int = d2.par_map(&exec, |d| d.value().unwrap_or(0));
    let a_int = a.par_map(&exec, |&x| i64::from(x));
    let s = fast_mm::multiply(clique, &IntRing, alg, &d2_int, &a_int);

    // Everyone learns deg_G(v) (one broadcast round).
    let degs = clique.broadcast(|v| a.row(v).iter().filter(|&&x| x).count() as u64);

    d2.par_map_indexed(&exec, |u, v, &dd| match dd.value() {
        None => INFINITY,
        Some(0) => Dist::zero(),
        Some(h) => {
            let parity = i64::from(s.row(u)[v] < h * degs[v] as i64);
            Dist::finite(2 * h - parity)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check(g: &Graph) {
        let mut clique = Clique::new(g.n());
        let d = apsp_seidel(&mut clique, g);
        assert_eq!(d.to_matrix(), oracle::apsp(g), "n={} m={}", g.n(), g.m());
    }

    #[test]
    fn paths_cycles_and_grids() {
        check(&generators::path(9));
        check(&generators::cycle(8));
        check(&generators::cycle(9));
        check(&generators::grid(3, 4));
        check(&generators::petersen());
    }

    #[test]
    fn complete_graph_is_the_base_case() {
        let g = generators::complete(10);
        let mut clique = Clique::new(10);
        let d = apsp_seidel(&mut clique, &g);
        for u in 0..10 {
            for v in 0..10 {
                let expect = if u == v {
                    Dist::zero()
                } else {
                    Dist::finite(1)
                };
                assert_eq!(d.row(u)[v], expect);
            }
        }
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..5 {
            check(&generators::gnp(18, 0.15, seed));
            check(&generators::gnp(25, 0.3, seed + 20));
        }
    }

    #[test]
    fn disconnected_components() {
        let g = generators::disjoint_union(&generators::path(6), &generators::cycle(5));
        check(&g);
        let iso = generators::complete(4).padded(6);
        check(&iso);
    }

    #[test]
    fn long_path_exercises_deep_recursion() {
        check(&generators::path(30));
    }
}
